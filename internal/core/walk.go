package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
	"hkpr/internal/xrand"
)

// This file implements stages 2-4 of the estimator pipeline shared by TEA,
// TEA+ and the pure Monte-Carlo estimator:
//
//	push phase (push.go)
//	  → residual/source collection (collectWalkEntries + planWalkStage)
//	  → sharded Monte-Carlo walk stage (runWalkStage)
//	  → deterministic merge (mergeInto, called by runWalkStage per round)
//
// The walk stage splits the query's walk budget over a fixed number of
// shards determined only by the budget itself — never by the parallelism —
// and gives shard i an RNG derived from (walk seed, i).  Shards execute on
// up to Options.Parallelism goroutines, each recording its walks' end nodes
// in its own contiguous range of one pooled list (4 B per walk, no n-sized
// state per shard), and the merge adds α/nr to the reserve slab per end node
// in (shard, walk) order.  A budget too large for one bounded list runs in
// rounds of at most maxRoundWalks walks, each shard continuing its own RNG
// stream, and each round merges in (shard, walk) order before the next
// starts.  Because shard contents and merge order are independent of how
// shards were scheduled, the result is bit-identical for a given seed at any
// parallelism; a serial run is simply parallelism 1.

// KRandomWalk implements Algorithm 2.  Starting at node u whose residue was
// generated at hop k, the walk stops at the current node with probability
// η(k+ℓ)/ψ(k+ℓ) at its ℓ-th step, and otherwise moves to a uniformly random
// neighbour.  The returned node is distributed according to h_u^(k), the
// conditional HKPR end-point distribution given that the walk's k-th hop is
// at u (Lemma 2); its expected length is O(t) (Lemma 4).
//
// lengthCap bounds the number of steps taken (0 means the heat-kernel
// truncation hop); beyond the table the stop probability is 1, so walks
// terminate regardless.  The number of edge traversals is returned alongside
// the end node so callers can account for walk cost.
func KRandomWalk(g *graph.Snapshot, rng *xrand.RNG, w *heatkernel.Weights, u graph.NodeID, k int, lengthCap int) (graph.NodeID, int) {
	if lengthCap <= 0 {
		lengthCap = w.MaxHop() + 1
	}
	cur := u
	steps := 0
	for l := 0; l < lengthCap; l++ {
		// Strict <: Float64 is uniform on [0,1), so a stop weight of exactly 0
		// must never terminate the walk (<= would stop with probability 2⁻⁵³),
		// and a stop weight of 1 (beyond the table) always does.
		if rng.Float64() < w.Stop(k+l) {
			return cur, steps
		}
		ns := g.Neighbors(cur)
		if len(ns) == 0 {
			// Dangling node: the walk has nowhere to go; terminate here.  In a
			// connected undirected graph this never happens.
			return cur, steps
		}
		cur = ns[rng.Intn(len(ns))]
		steps++
	}
	return cur, steps
}

// walkEntry is one (node, hop) source for the random-walk phase, weighted by
// its (possibly reduced) residue.
type walkEntry struct {
	node    graph.NodeID
	hop     int
	residue float64
}

// collectWalkEntries flattens the non-zero residues into the workspace's
// entry buffer plus the weight vector used to build the alias table.
// Entries are sorted by (hop, node) so results are reproducible for a fixed
// RNG seed regardless of the touched lists' insertion order.  The returned
// slices alias the workspace and are recycled with it, which keeps the
// serving hot path from re-allocating them on every query.
func collectWalkEntries(res *ResidueVectors, ws *Workspace) ([]walkEntry, []float64) {
	entries := ws.entries[:0]
	res.Entries(func(k int, v graph.NodeID, r float64) {
		if r <= 0 {
			return
		}
		entries = append(entries, walkEntry{node: v, hop: k, residue: r})
	})
	slices.SortFunc(entries, func(a, b walkEntry) int {
		if a.hop != b.hop {
			return a.hop - b.hop
		}
		return int(a.node) - int(b.node)
	})
	weights := ws.weights[:0]
	for _, e := range entries {
		weights = append(weights, e.residue)
	}
	ws.entries, ws.weights = entries, weights
	return entries, weights
}

// sumWeights returns α, the total residue mass handed to the walk stage,
// summed over the sorted entry order so it is bit-reproducible run to run.
// Computing it from the already-sorted weights avoids a second sorted pass
// over the residue slabs (ResidueVectors.TotalMass sorts per hop).
func sumWeights(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total
}

// Sharding constants.  The shard count is a pure function of the walk budget
// so that it — and with it the result — cannot depend on the parallelism.
const (
	// maxWalkShards bounds the shards (and hence the useful parallelism) of
	// one query's walk stage.
	maxWalkShards = 32
	// minWalksPerShard keeps tiny walk phases unsharded: below this budget a
	// shard's fixed costs (RNG seeding, goroutine handoff) outweigh the walks.
	minWalksPerShard = 512
	// maxRoundWalks caps the end list (4 B per walk) of one round, so a huge
	// walk budget — Monte-Carlo on a large graph, or a tiny εr — costs at
	// most 4 MiB of end list rather than memory proportional to the budget.
	maxRoundWalks = 1 << 20
)

// walkShardCount returns the number of shards the walk budget nr is split
// into.  Deterministic in nr only.
func walkShardCount(nr int64) int {
	s := nr / minWalksPerShard
	if s < 1 {
		return 1
	}
	if s > maxWalkShards {
		return maxWalkShards
	}
	return int(s)
}

// shardSeed derives shard i's RNG seed from the query's walk seed with a
// splitmix64-style finalizer, so shard streams are decorrelated even for
// adjacent indices and seeds.
func shardSeed(base uint64, shard int) uint64 {
	x := base + 0x9e3779b97f4a7c15*uint64(shard+1)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// walkPlan is the immutable output of the source-collection stage: everything
// the sharded walk stage needs, with the sharding fixed up front.  It lives
// in (and aliases) the query's workspace.
type walkPlan struct {
	entries   []walkEntry
	alias     *xrand.Alias // shared, read-only during sampling
	alpha     float64
	nr        int64
	lengthCap int
	shards    int
	seed      uint64 // query-level walk seed; shard i uses shardSeed(seed, i)
	roundLen  int64  // walks per shard per round
}

// planWalkStage builds the walk plan from the collected sources into ws's
// plan slot.  It returns (nil, nil) when no walks are needed, which
// short-circuits stages 3-4.
func planWalkStage(ws *Workspace, entries []walkEntry, weights []float64, alpha float64, nr int64, lengthCap int, seed uint64) (*walkPlan, error) {
	if nr <= 0 || len(entries) == 0 || alpha <= 0 {
		return nil, nil
	}
	if err := ws.alias.Rebuild(weights); err != nil {
		return nil, err
	}
	ws.plan = walkPlan{
		entries:   entries,
		alias:     &ws.alias,
		alpha:     alpha,
		nr:        nr,
		lengthCap: lengthCap,
		shards:    walkShardCount(nr),
		seed:      seed,
	}
	ws.plan.roundLen = maxRoundWalks / int64(ws.plan.shards)
	return &ws.plan, nil
}

// shardWalks returns shard i's walk budget: nr split as evenly as possible,
// the first nr mod shards shards taking one extra walk.
func (p *walkPlan) shardWalks(i int) int64 {
	base := p.nr / int64(p.shards)
	if int64(i) < p.nr%int64(p.shards) {
		return base + 1
	}
	return base
}

// rounds returns the number of rounds the walk budget runs in: enough for
// the largest shard at roundLen walks per round.
func (p *walkPlan) rounds() int {
	return int((p.shardWalks(0) + p.roundLen - 1) / p.roundLen)
}

// shardRound returns how many walks shard i runs in round r and where they
// start in that round's end list.  Every round but the last runs roundLen
// walks per shard; the last runs the remainder, split like shardWalks.
func (p *walkPlan) shardRound(i, r int) (walks, offset int64) {
	base, extra := p.nr/int64(p.shards), p.nr%int64(p.shards)
	base -= int64(r) * p.roundLen
	if base >= p.roundLen {
		return p.roundLen, int64(i) * p.roundLen
	}
	walks = base
	if int64(i) < extra {
		walks++
	}
	return walks, int64(i)*base + min(int64(i), extra)
}

// runSharded executes run(i) for every i in [0, n) on up to workers
// goroutines, stealing indices from a shared atomic counter.  Unit contents
// must depend only on i so that scheduling can never leak into results.
func runSharded(n, workers int, run func(int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// walkStageResult carries the walk stage's counters and timings for Stats.
type walkStageResult struct {
	walks   int64
	steps   int64
	shards  int
	workers int
	// mergeTime is the time spent in the merge callback, starting at
	// mergeStart; walkTime is the rest of the stage.
	walkTime, mergeTime time.Duration
	mergeStart          time.Time
}

// mergeSpan returns the merge stage's span: the rounds' merges plus the
// score-vector materialization that began at matStart.
func (r *walkStageResult) mergeSpan(matStart time.Time) (time.Time, time.Duration) {
	d := r.mergeTime + time.Since(matStart)
	if r.mergeStart.IsZero() {
		return matStart, d
	}
	return r.mergeStart, d
}

// runWalkStage executes the plan's shards on up to parallelism goroutines,
// round by round, handing each round's end list to merge in (shard, walk)
// order together with α/nr, the score each walk carries to its end node.
// When ctl carries a CPUGate, extra goroutines beyond the first are borrowed
// from (and returned to) the shared token budget, so a busy serving engine
// degrades each query toward serial execution instead of oversubscribing the
// cores.  Each shard walks with its own RNG and cancellation checker and
// writes its end nodes into its own range of the workspace's end list, sized
// for the round up front so no shard ever regrows it; shard contents depend
// only on the plan, never on scheduling.
func runWalkStage(g *graph.Snapshot, w *heatkernel.Weights, p *walkPlan, parallelism int, ctl execCtl, merge func(ends []graph.NodeID, increment float64)) (walkStageResult, error) {
	if p == nil {
		return walkStageResult{}, nil
	}
	stageStart := time.Now()
	workers := parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > p.shards {
		workers = p.shards
	}
	if workers > 1 && ctl.cpu != nil {
		extra := ctl.cpu.TryAcquire(workers - 1)
		defer ctl.cpu.Release(extra)
		workers = 1 + extra
	}

	ws := ctl.ws
	size := min(p.nr, int64(p.shards)*p.roundLen)
	if int64(cap(ws.ends)) < size {
		ws.ends = make([]graph.NodeID, size)
	}
	if cap(ws.shardRNG) < p.shards {
		ws.shardRNG = make([]xrand.RNG, p.shards)
	}
	rngs := ws.shardRNG[:p.shards]
	for i := range rngs {
		rngs[i].Reseed(shardSeed(p.seed, i))
	}
	out := walkStageResult{shards: p.shards, workers: workers}
	shardWalks, shardSteps, shardErrs := ws.shardCounters(p.shards)
	increment := p.alpha / float64(p.nr)
	var failed atomic.Bool

	for r := range p.rounds() {
		last, lastOff := p.shardRound(p.shards-1, r)
		ends := ws.ends[:lastOff+last]
		runShard := func(i int) {
			if failed.Load() {
				// Another shard hit cancellation; skip the remaining shards —
				// the query is being abandoned and partial scores are
				// discarded.
				return
			}
			n, off := p.shardRound(i, r)
			shardEnds := ends[off : off+n]
			if len(shardEnds) == 0 {
				return
			}
			// The RNG and the cancellation fork are goroutine-local values
			// while the shard runs: both mutate on every walk (RNG state,
			// tick counter), so working on the shared per-shard slices would
			// false-share cache lines between shards on different cores.
			rng := rngs[i]
			var cc *cancelChecker
			if ctl.cc != nil {
				fork := ctl.cc.forkValue()
				cc = &fork
			}
			var steps int64
			for j := range shardEnds {
				e := p.entries[p.alias.Sample(&rng)]
				end, st := KRandomWalk(g, &rng, w, e.node, e.hop, p.lengthCap)
				shardEnds[j] = end
				steps += int64(st)
				if err := cc.tick(st + 1); err != nil {
					shardErrs[i] = err
					shardWalks[i] += int64(j + 1)
					shardSteps[i] += steps
					failed.Store(true)
					return
				}
			}
			rngs[i] = rng
			shardWalks[i] += int64(len(shardEnds))
			shardSteps[i] += steps
		}
		runSharded(p.shards, workers, runShard)
		if failed.Load() {
			break
		}
		mergeStart := time.Now()
		if r == 0 {
			out.mergeStart = mergeStart
		}
		merge(ends, increment)
		out.mergeTime += time.Since(mergeStart)
	}
	out.walkTime = time.Since(stageStart) - out.mergeTime

	for i := 0; i < p.shards; i++ {
		out.walks += shardWalks[i]
		out.steps += shardSteps[i]
	}
	for _, err := range shardErrs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// mergeInto returns the walk-stage merge that adds each walk's increment to
// its end node's slot of scores.  Every node's final score is its reserve
// plus its walk increments in (round, shard, walk) order — a fixed
// float-addition order, which is what makes the pipeline's output
// parallelism-independent.
func mergeInto(scores *denseVec) func([]graph.NodeID, float64) {
	return func(ends []graph.NodeID, increment float64) {
		for _, v := range ends {
			scores.add(v, increment)
		}
	}
}
