package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
)

// This file implements the batched multi-source execution mode: one
// EstimateMany call runs k seed nodes through shared per-graph state —
// a single pooled workspace, one option resolution, and (for TEA) one shared
// frontier scan per push hop (batchpush.go) — while producing results
// bit-identical to k independent single-source calls.
//
// TEA batches amortize the push phase itself: groups of up to maxBatchLanes
// sources push through one traversal per hop on the slab-of-vectors layout.
// TEA+ and Monte-Carlo batches run their sources sequentially on the shared
// workspace: HK-Push+'s budget cut, per-source Inequality-11 early
// termination and checkpoint cadence are inherently per-source control flow,
// so a shared scan could not preserve bit-identity there; the batch still
// amortizes workspace acquisition and option/weight setup.  Every source
// keeps its own cancellation, invariant audit and error: one canceled or
// invalid source drops out of the batch without aborting the rest.

// BatchContext carries the execution controls of one batched query.  The
// embedded OptionsContext plays its usual role for the batch as a whole
// (workspace, CPU gate, batch-level cancellation); SourceCtx and SourceAudit
// optionally override cancellation and auditing per source.
type BatchContext struct {
	OptionsContext
	// SourceCtx, when non-nil at index i, aborts source i alone when done;
	// the remaining sources keep running.  A caller that also uses the
	// batch-level Ctx should derive each SourceCtx from it (the serving
	// layer's per-query contexts already are).  Missing or nil entries fall
	// back to the batch-level Ctx.
	SourceCtx []context.Context
	// SourceAudit, when non-nil at index i, receives source i's invariant
	// checks; missing or nil entries fall back to the batch-level Audit.
	SourceAudit []*InvariantAudit
}

// laneChecker builds source idx's cancellation checker: its own context when
// provided, the batch context otherwise.
func (bc *BatchContext) laneChecker(idx int) *cancelChecker {
	oc := bc.OptionsContext
	if idx < len(bc.SourceCtx) && bc.SourceCtx[idx] != nil {
		oc.Ctx = bc.SourceCtx[idx]
	}
	return newCancelChecker(oc)
}

// laneAudit resolves source idx's invariant audit.
func (bc *BatchContext) laneAudit(idx int) *InvariantAudit {
	if idx < len(bc.SourceAudit) && bc.SourceAudit[idx] != nil {
		return bc.SourceAudit[idx]
	}
	return bc.Audit
}

// EstimateMany runs TEA+ for every seed through one batched execution on a
// single pooled workspace and demultiplexes the results, one per seed in
// order.  Results are bit-identical to len(seeds) independent TEAPlus calls
// with the same Options (including Options.Seed: each source's walk streams
// derive from its own seed node, so sharing one Options across the batch
// changes nothing — though duplicate seed nodes produce identical results).
//
// Any invalid seed fails the whole call up front; runtime per-source failures
// are joined into the returned error while the remaining results are still
// returned.  For the method-resolved, per-source-error form used by the
// serving layer, see Estimator.TEAManyContext and friends.
func EstimateMany(src graph.Source, seeds []graph.NodeID, opts Options) ([]*Result, error) {
	g := src.Snapshot()
	est, err := NewEstimator(g, opts)
	if err != nil {
		return nil, err
	}
	for _, s := range seeds {
		if err := validateSeed(g, s); err != nil {
			return nil, err
		}
	}
	results, srcErrs, err := est.TEAPlusManyContext(BatchContext{}, seeds, Options{})
	if err != nil {
		return nil, err
	}
	if err := errors.Join(srcErrs...); err != nil {
		return results, err
	}
	return results, nil
}

// TEAMany runs Algorithm 3 for every seed through the shared-scan batch path.
func (e *Estimator) TEAMany(seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	return e.TEAManyContext(BatchContext{}, seeds, query)
}

// TEAManyContext is the batched counterpart of TEAContext: groups of up to
// maxBatchLanes seeds push through one shared frontier scan per hop, walk
// shards run per source with unchanged RNG streams, and results demultiplex
// bit-identical to len(seeds) independent runs.  It returns one result or
// error per seed (results[i] is nil exactly when errs[i] is non-nil); the
// final error is non-nil only when the batch as a whole could not start.
func (e *Estimator) TEAManyContext(bc BatchContext, seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	g := e.snapshotFor(bc.OptionsContext)
	o := e.optsFor(g, query)
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	ctl := newExecCtl(bc.OptionsContext)
	release := acquireWorkspace(&ctl, g)
	defer release()
	for lo := 0; lo < len(seeds); lo += maxBatchLanes {
		hi := lo + maxBatchLanes
		if hi > len(seeds) {
			hi = len(seeds)
		}
		teaGroup(g, o, e.w, ctl, bc, lo, seeds[lo:hi], results, errs)
	}
	return results, errs, nil
}

// TEAPlusMany runs Algorithm 5 for every seed on one shared workspace.
func (e *Estimator) TEAPlusMany(seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	return e.TEAPlusManyContext(BatchContext{}, seeds, query)
}

// TEAPlusManyContext is the batched counterpart of TEAPlusContext.  Sources
// run sequentially on the shared workspace (HK-Push+'s budget and
// early-termination control flow are per-source; see the file comment), each
// with its own cancellation and audit.
func (e *Estimator) TEAPlusManyContext(bc BatchContext, seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	g := e.snapshotFor(bc.OptionsContext)
	o := e.optsFor(g, query)
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	return runManySequential(g, seeds, o, e.w, bc, teaPlusWithWeights)
}

// MonteCarloMany runs the pure Monte-Carlo estimator for every seed on one
// shared workspace.
func (e *Estimator) MonteCarloMany(seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	return e.MonteCarloManyContext(BatchContext{}, seeds, query)
}

// MonteCarloManyContext is the batched counterpart of MonteCarloContext.
func (e *Estimator) MonteCarloManyContext(bc BatchContext, seeds []graph.NodeID, query Options) ([]*Result, []error, error) {
	g := e.snapshotFor(bc.OptionsContext)
	o := e.optsFor(g, query).withDefaults()
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	return runManySequential(g, seeds, o, e.w, bc, monteCarloWithWeights)
}

// runManySequential executes one single-source estimator seam per seed on a
// shared workspace, with per-source cancellation, audits and errors.
func runManySequential(g *graph.Snapshot, seeds []graph.NodeID, o Options, w *heatkernel.Weights,
	bc BatchContext, fn func(*graph.Snapshot, graph.NodeID, Options, *heatkernel.Weights, execCtl) (*Result, error)) ([]*Result, []error, error) {
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	ctl := newExecCtl(bc.OptionsContext)
	release := acquireWorkspace(&ctl, g)
	defer release()
	for i, s := range seeds {
		if err := ctl.cc.err(); err != nil {
			errs[i] = err
			continue
		}
		if err := validateSeed(g, s); err != nil {
			errs[i] = err
			continue
		}
		laneCtl := execCtl{cc: bc.laneChecker(i), cpu: ctl.cpu, ws: ctl.ws, audit: bc.laneAudit(i), walkScale: ctl.walkScale}
		res, err := fn(g, s, o, w, laneCtl)
		if err != nil {
			errs[i] = err
			continue
		}
		results[i] = res
	}
	return results, errs, nil
}

// teaGroup runs one group of up to maxBatchLanes TEA sources through the
// four-stage pipeline on the workspace's batch slabs: shared-scan push,
// per-lane collection and sharded walks (unchanged per-source RNG streams),
// and a demultiplexing merge.  Results and per-source errors land at
// results/errs[base+i].
func teaGroup(g *graph.Snapshot, o Options, w *heatkernel.Weights, ctl execCtl, bc BatchContext,
	base int, seeds []graph.NodeID, results []*Result, errs []error) {
	kk := len(seeds)
	ws := ctl.ws
	st := ws.batchFor(kk)
	// The batch slabs carry an all-zero-outside-a-batch invariant instead of
	// epoch stamps; restore it before the pooled workspace is reused, even on
	// an unwinding panic.
	defer st.drain()
	if cap(st.lanes) < kk {
		st.lanes = make([]batchLane, kk)
	}
	st.lanes = st.lanes[:kk]
	lanes := st.lanes

	batchErr := ctl.cc.err()
	for i := range lanes {
		lanes[i] = batchLane{
			seed:  seeds[i],
			cc:    bc.laneChecker(base + i),
			audit: bc.laneAudit(base + i),
		}
		ln := &lanes[i]
		switch {
		case batchErr != nil:
			ln.err = batchErr
		default:
			if err := validateSeed(g, seeds[i]); err != nil {
				ln.err = err
			} else if err := ln.cc.err(); err != nil {
				ln.err = err
			}
		}
	}

	pfAdj := adjustedPf(g, o)
	omega := omegaTEA(o.EpsRel, o.Delta, pfAdj)
	rmax := o.RmaxScale / (omega * o.T)
	if rmax <= 0 {
		rmax = 1e-12
	}
	maxHops := o.MaxPushHops
	if maxHops <= 0 {
		maxHops = w.TruncationHop(1e-12)
	}

	// Stage 1: seed injection (unit mass at hop 0, as in hkPush) and the
	// shared-scan push.  Shared work is split evenly over the lanes it
	// served, so per-lane stage times sum to the group's wall time instead of
	// counting the shared scan once per lane.
	pushStart := time.Now()
	served := 0
	for i := range lanes {
		if lanes[i].err != nil {
			continue
		}
		st.resid.level(0).setLane(lanes[i].seed, i, 1)
		lanes[i].hops = 1
		served++
	}
	batchPushTEA(g, st, lanes, w, rmax, maxHops)
	pushShare := time.Since(pushStart) / time.Duration(max(served, 1))

	// The shared scan sorts each hop's touched list as it drains it; levels
	// the hop loop never reached (final residues) are sorted here so every
	// touched list is ascending — the fused collection below relies on it.
	// Already-sorted levels re-derive via the linear mask scan or a cheap
	// detection pass inside the sort.  Sorting and collecting every lane's
	// walk entries is shared planning; the reserve sums feed only the audits.
	planStart := time.Now()
	for k := 0; k < st.resid.active; k++ {
		st.resid.levels[k].sortTouched()
	}
	st.residStats(st.massD, st.nonZero, st.maxHop)
	planShared := time.Since(planStart)
	var auditShared time.Duration
	if anyLaneAudited(lanes) {
		auditStart := time.Now()
		st.reserveMasses(st.massR)
		auditShared = time.Since(auditStart)
	}
	if n := time.Duration(bits.OnesCount64(liveMask(lanes))); n > 0 {
		planShared /= n
		auditShared /= n
	}
	for i := range lanes {
		ln := &lanes[i]
		if ln.err != nil {
			continue
		}
		ln.pushTime, ln.planTime = pushShare, planShared
		// Per-source mass conservation inside the shared pass: each lane's
		// reserve plus residue mass must still be its injected unit.
		if err := ln.ctl(ctl).audited(&ln.auditClock, func(a *InvariantAudit) error {
			return auditMassConservation(a, st.massR[i], st.massD[i])
		}); err != nil {
			ln.err = fmt.Errorf("core: TEA push phase: %w", err)
			continue
		}
		if ln.audit != nil {
			ln.auditClock.total += auditShared
		}
		ln.maxHop = st.maxHop[i]
		ln.residNonZero = st.nonZero[i]
	}

	// Stages 2-3 per lane, sequentially: entries were collected in (hop,
	// node) order (residStats, over the sorted touched lists) so the shared
	// first-touch order cannot leak in, and the walk plan seed derives from
	// the lane's own seed node, so its shard RNG streams are the ones its
	// single-source run would use.  Shards inside a lane still fan out over
	// up to o.Parallelism goroutines, and each walk round adds its α/nr
	// increments to the lane's reserve window in (shard, walk) order.
	for i := range lanes {
		ln := &lanes[i]
		if ln.err != nil {
			continue
		}
		planStart := time.Now()
		entries, weights := st.entries[i], st.weights[i]
		alpha := sumWeights(weights)
		planned := int64(math.Ceil(alpha * omega))
		nr, clamped := ctl.clampWalks(planned)
		ln.walkClamped, ln.walkPlanned = clamped, plannedBudget(planned, clamped)
		plan, err := planWalkStage(ws, entries, weights, alpha, nr, o.WalkLengthCap, walkSeed(o.Seed, ln.seed, teaSeedMix))
		ln.planTime += time.Since(planStart)
		if err != nil {
			ln.err = fmt.Errorf("core: TEA walk phase: %w", err)
			continue
		}
		walked, err := runWalkStage(g, w, plan, o.Parallelism, ln.ctl(ctl), func(ends []graph.NodeID, increment float64) {
			for _, u := range ends {
				st.reserve.addLane(u, i, increment)
			}
		})
		if err != nil {
			ln.err = fmt.Errorf("core: TEA walk phase: %w", err)
			continue
		}
		ln.walkTime, ln.mergeTime = walked.walkTime, walked.mergeTime
		ln.alpha, ln.walks, ln.steps = alpha, walked.walks, walked.steps
		ln.walkShards, ln.walkWorkers = walked.shards, walked.workers
		ln.entriesLen = len(entries)
	}

	// Stage 4: demultiplex.  One shared sort of the reserve's touched list,
	// one fused pass sizing every live lane's score vector, and one fused
	// pass materializing all of them — per lane the append order is the
	// sorted touched subsequence its mask bit selects, so lane i's entry set
	// (zeros included) is exactly the single-source result, since its mask
	// bit was set by exactly the adds that run would perform.
	mergeStart := time.Now()
	st.reserve.sortTouched()
	liveBits := liveMask(lanes)
	var cnt [maxBatchLanes]int
	for _, v := range st.reserve.touched {
		for m := uint64(st.reserve.mask[v]) & liveBits; m != 0; m &= m - 1 {
			cnt[bits.TrailingZeros64(m)]++
		}
	}
	var scoresBuf [maxBatchLanes]ScoreVector
	for i := range lanes {
		if lanes[i].err == nil {
			scoresBuf[i] = make(ScoreVector, 0, cnt[i])
		}
	}
	rvals, rmask, rn := st.reserve.vals, st.reserve.mask, st.reserve.n
	for _, v := range st.reserve.touched {
		for m := uint64(rmask[v]) & liveBits; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			scoresBuf[i] = append(scoresBuf[i], ScoredNode{Node: v, Score: rvals[i*rn+int(v)]})
		}
	}
	mergeShared := time.Since(mergeStart)
	if n := bits.OnesCount64(liveBits); n > 0 {
		mergeShared /= time.Duration(n)
	}
	for i := range lanes {
		ln := &lanes[i]
		if ln.err != nil {
			errs[base+i] = ln.err
			continue
		}
		scores := scoresBuf[i]
		ln.mergeTime += mergeShared
		if err := ln.ctl(ctl).audited(&ln.auditClock, func(a *InvariantAudit) error {
			return auditResult(a, scores, 0)
		}); err != nil {
			errs[base+i] = fmt.Errorf("core: TEA merge phase: %w", err)
			continue
		}
		results[base+i] = &Result{
			Seed:   ln.seed,
			Scores: scores,
			Stats: Stats{
				PushOperations:         ln.ops,
				PushedNodes:            ln.nodes,
				RandomWalks:            ln.walks,
				WalkSteps:              ln.steps,
				ResidueMassBeforeWalks: ln.alpha,
				MaxHop:                 ln.maxHop,
				WalkBudgetClamped:      ln.walkClamped,
				WalkBudgetPlanned:      ln.walkPlanned,
				WalkShards:             ln.walkShards,
				WalkParallelism:        ln.walkWorkers,
				PushTime:               ln.pushTime,
				WalkTime:               ln.walkTime,
				MergeTime:              ln.mergeTime,
				PlanTime:               ln.planTime,
				AuditTime:              ln.auditClock.total,
				WorkingSetBytes: scoreVectorWorkingSetBytes(len(scores)) +
					estimatedWorkingSetBytes(ln.residNonZero) +
					int64(ln.entriesLen)*24,
			},
		}
	}
}

// ctl returns the lane's execution controls: the group's CPU gate and
// workspace with the lane's own cancellation and audit.
func (ln *batchLane) ctl(group execCtl) execCtl {
	return execCtl{cc: ln.cc, cpu: group.cpu, ws: group.ws, audit: ln.audit}
}

// anyLaneAudited reports whether some live lane runs with an audit.
func anyLaneAudited(lanes []batchLane) bool {
	for i := range lanes {
		if lanes[i].err == nil && lanes[i].audit != nil {
			return true
		}
	}
	return false
}
