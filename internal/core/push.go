package core

import (
	"slices"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
)

// ResidueVectors holds the k-hop residue vectors r^(0)..r^(K) produced by the
// push phase.  Each hop level is an epoch-versioned dense slab (see
// workspace.go) indexed by NodeID with an insertion-order touched list, so
// lookups and accumulation are O(1) without hashing and building the sorted
// frontier is a flat sort over the touched nodes.  Levels are activated on
// demand and recycled with the owning Workspace.
type ResidueVectors struct {
	n      int
	active int
	levels []denseVec
}

// begin rebinds the vectors to a graph of n nodes with no active hop levels.
func (r *ResidueVectors) begin(n int) {
	r.n = n
	r.active = 0
}

// level returns hop k's slab, activating (and clearing) levels up to k.
func (r *ResidueVectors) level(k int) *denseVec {
	for r.active <= k {
		if r.active == len(r.levels) {
			r.levels = append(r.levels, denseVec{})
		}
		d := &r.levels[r.active]
		d.grow(r.n)
		d.reset()
		r.active++
	}
	return &r.levels[k]
}

// NumHops returns K+1, the number of hop levels activated (possibly including
// levels whose residues have all been pushed away).
func (r *ResidueVectors) NumHops() int { return r.active }

// Get returns r^(k)[v].
func (r *ResidueVectors) Get(k int, v graph.NodeID) float64 {
	if k < 0 || k >= r.active {
		return 0
	}
	return r.levels[k].get(v)
}

// add accumulates x onto r^(k)[v], activating hop levels as needed.
func (r *ResidueVectors) add(k int, v graph.NodeID, x float64) {
	r.level(k).add(v, x)
}

// set overwrites r^(k)[v]; a zero value removes the entry from the non-zero
// support (the slab keeps the node on its touched list, which readers skip).
func (r *ResidueVectors) set(k int, v graph.NodeID, x float64) {
	r.level(k).set(v, x)
}

// TotalMass returns α = Σ_k Σ_u r^(k)[u], summed in (hop, node) order.
// Float addition is not associative, so summing in an arbitrary order would
// perturb α — and with it the walk budget and every walk increment — between
// otherwise identical runs; the fixed order keeps the estimator pipeline
// bit-reproducible for a fixed RNG seed.
func (r *ResidueVectors) TotalMass() float64 {
	total := 0.0
	for k := 0; k < r.active; k++ {
		total += r.HopMass(k)
	}
	return total
}

// HopMass returns Σ_u r^(k)[u], summed in ascending node order (see
// TotalMass for why the order is fixed).  It sorts the hop's touched list in
// place; by the time HopMass is used (residue reduction, mass accounting) the
// insertion order is no longer needed.
func (r *ResidueVectors) HopMass(k int) float64 {
	if k < 0 || k >= r.active {
		return 0
	}
	hop := &r.levels[k]
	slices.Sort(hop.touched)
	total := 0.0
	for _, v := range hop.touched {
		total += hop.vals[v]
	}
	return total
}

// NonZeroEntries returns the number of non-zero (node, hop) residue entries.
func (r *ResidueVectors) NonZeroEntries() int {
	n := 0
	for k := 0; k < r.active; k++ {
		n += r.levels[k].nonZero()
	}
	return n
}

// MaxHopWithMass returns the largest k such that r^(k) has a non-zero entry,
// or -1 if all residues are zero.
func (r *ResidueVectors) MaxHopWithMass() int {
	for k := r.active - 1; k >= 0; k-- {
		if r.levels[k].nonZero() > 0 {
			return k
		}
	}
	return -1
}

// NormalizedMaxSum returns Σ_k max_u r^(k)[u]/d(u), the left-hand side of
// Inequality (11); TEA+ uses it both as HK-Push+'s early-termination test and
// as the decision of whether random walks are needed at all.
func (r *ResidueVectors) NormalizedMaxSum(g *graph.Snapshot) float64 {
	total := 0.0
	for k := 0; k < r.active; k++ {
		hop := &r.levels[k]
		max := 0.0
		for _, v := range hop.touched {
			x := hop.vals[v]
			d := float64(g.Degree(v))
			if d == 0 {
				continue
			}
			if norm := x / d; norm > max {
				max = norm
			}
		}
		total += max
	}
	return total
}

// Entries calls fn for every non-zero residue entry (hop, node, value).
func (r *ResidueVectors) Entries(fn func(k int, v graph.NodeID, residue float64)) {
	for k := 0; k < r.active; k++ {
		hop := &r.levels[k]
		for _, v := range hop.touched {
			if x := hop.vals[v]; x != 0 {
				fn(k, v, x)
			}
		}
	}
}

// ReserveVector is a read-only view of the reserve vector q_s, backed by the
// workspace's dense score slab.  It stays valid until the owning workspace
// starts its next query; long-lived consumers materialize it with
// ToScoreVector.
type ReserveVector struct {
	vec *denseVec
}

// Get returns q_s[v].
func (q ReserveVector) Get(v graph.NodeID) float64 { return q.vec.get(v) }

// Len returns the number of entries, mirroring len() of the former map form
// (explicitly written zero entries count, as they did in the map).
func (q ReserveVector) Len() int { return len(q.vec.touched) }

// Entries calls fn for every entry in insertion order.
func (q ReserveVector) Entries(fn func(v graph.NodeID, reserve float64)) {
	for _, v := range q.vec.touched {
		fn(v, q.vec.vals[v])
	}
}

// TotalMass returns Σ_v q_s[v] in ascending node order (fixed for
// bit-reproducibility, matching ResidueVectors.HopMass).
func (q ReserveVector) TotalMass() float64 {
	slices.Sort(q.vec.touched)
	total := 0.0
	for _, v := range q.vec.touched {
		total += q.vec.vals[v]
	}
	return total
}

// ToScoreVector materializes the reserve into the public flat node-sorted
// vector form (sorting the slab's touched list in place; see
// denseVec.toScoreVector).  Long-lived consumers that want a mutable map
// call .Map() on the result.
func (q ReserveVector) ToScoreVector() ScoreVector { return q.vec.toScoreVector() }

// PushResult is the output of HK-Push / HK-Push+: the reserve vector q_s and
// the residue vectors r^(0)..r^(K), together with the work counters used by
// the complexity accounting.  Both vectors alias the workspace the push ran
// on and stay valid until that workspace's next query.
type PushResult struct {
	Reserve        ReserveVector
	Residues       *ResidueVectors
	PushOperations int64 // Σ d(v) over pushed (v,k) entries
	PushedNodes    int64 // number of pushed (v,k) entries
	// SatisfiedInequality11 records whether Σ_k max_u r^(k)[u]/d(u) ≤ ε was
	// established during the push (only HK-Push+ checks it).
	SatisfiedInequality11 bool
}

// hopMaxes incrementally tracks max_u r^(k)[u]/d(u) per hop — the per-hop
// terms of Inequality (11) — so HK-Push+'s periodic re-check costs O(hops)
// instead of rescanning every residue entry.  Hops ahead of the drain only
// ever receive adds, which observe keeps exact; for the hop currently
// draining, the caller re-seats its term with set from a precomputed
// suffix-maximum over the still-unpushed frontier tail (see hkPushPlus), so
// the sum is exact at every checkpoint and mid-hop early termination still
// fires as soon as the dominant entries have been pushed.
type hopMaxes struct {
	max []float64
}

// observe accounts for residue value r landing on a node of degree d at hop k.
func (h *hopMaxes) observe(k int, r, d float64) {
	if d <= 0 {
		return
	}
	for len(h.max) <= k {
		h.max = append(h.max, 0)
	}
	if norm := r / d; norm > h.max[k] {
		h.max[k] = norm
	}
}

// set overwrites hop k's term with an exactly-known maximum.
func (h *hopMaxes) set(k int, v float64) {
	for len(h.max) <= k {
		h.max = append(h.max, 0)
	}
	h.max[k] = v
}

// sum returns Σ_k max(k) = NormalizedMaxSum at every checkpoint (each term
// is exact there), so sum() ≤ ε is exactly Inequality (11).
func (h *hopMaxes) sum() float64 {
	total := 0.0
	for _, m := range h.max {
		total += m
	}
	return total
}

// inequalityCheckEvery is the number of push operations between HK-Push+'s
// Inequality-11 re-checks.  The checkpoints fall at fixed positions of the
// sorted frontier, so early termination is a pure function of the query.
const inequalityCheckEvery = 4096

// drainFrontier pushes every node of one hop's sorted frontier, spreading the
// hop-(k+1) residue and accumulating reserves, counters and (when track is
// non-nil) the incremental Inequality-11 bound against target.  It is one
// serial loop: residues and reserves accumulate in frontier order, so the
// push state is a pure function of the query.
//
// It returns satisfied=true as soon as the Inequality-11 sum drops to target
// or below.  The check runs every inequalityCheckEvery operations.  At each
// checkpoint the draining hop's own term is re-seated exactly from
// suffixMax — suffixMax[i] is the maximum residue norm over frontier[i:],
// and restMax the maximum over the hop's entries outside the frontier — so
// the test can fire mid-hop once the dominant entries have been pushed.
func drainFrontier(res *PushResult, g *graph.Snapshot, hop *denseVec, frontier []graph.NodeID, stop float64, k int, ctl execCtl, track *hopMaxes, target float64, suffixMax []float64, restMax float64) (satisfied bool, err error) {
	reserve := &ctl.ws.reserve
	var next *denseVec
	sinceCheck := int64(0)
	for idx, v := range frontier {
		r := hop.get(v)
		if r == 0 {
			continue
		}
		deg := g.Degree(v)
		reserve.add(v, stop*r)
		spread := (1 - stop) * r
		if spread > 0 && deg > 0 {
			if next == nil {
				next = res.Residues.level(k + 1)
			}
			share := spread / float64(deg)
			for _, u := range g.Neighbors(v) {
				nv := next.add(u, share)
				if track != nil {
					track.observe(k+1, nv, float64(g.Degree(u)))
				}
			}
		}
		hop.set(v, 0)
		res.PushOperations += int64(deg)
		res.PushedNodes++
		if err := ctl.cc.tick(int(deg)); err != nil {
			return false, err
		}
		if track != nil {
			sinceCheck += int64(deg)
			if sinceCheck >= inequalityCheckEvery {
				sinceCheck = 0
				remaining := restMax
				if s := suffixMax[idx+1]; s > remaining {
					remaining = s
				}
				track.set(k, remaining)
				if track.sum() <= target {
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// HKPush implements Algorithm 1.  Starting from r^(0)[s] = 1 it repeatedly
// picks a node v with k-hop residue above rmax·d(v), converts an η(k)/ψ(k)
// fraction of that residue into v's reserve, and spreads the rest uniformly
// onto the (k+1)-hop residues of v's neighbours.
//
// The loop is scheduled hop by hop: pushes at hop k only create hop-(k+1)
// residue, so a single scan per hop processes every entry that can ever
// exceed the threshold.  maxHops caps the number of hop levels expanded
// (residue at the cap is left in place for the walk phase); pass a value at
// least the heat-kernel truncation hop for full fidelity.
//
// The returned PushResult owns a private workspace (it is not recycled), so
// it stays valid indefinitely; the pipeline seams instead run on pooled
// workspaces and materialize maps at the API boundary.
//
// The run time and the number of non-zero residue entries are O(1/rmax)
// (Lemma 3).
func HKPush(src graph.Source, seed graph.NodeID, w *heatkernel.Weights, rmax float64, maxHops int) *PushResult {
	g := src.Snapshot()
	res, _ := hkPush(g, seed, w, rmax, maxHops, execCtl{ws: NewWorkspace(g.N())})
	return res
}

// hkPush is HKPush with a cancellation checkpoint charged per pushed node
// (cost d(v), the paper's push-operation unit).  ctl.ws must be non-nil and
// already bound to g.  On cancellation the partial result is returned
// alongside the context error.
func hkPush(g *graph.Snapshot, seed graph.NodeID, w *heatkernel.Weights, rmax float64, maxHops int, ctl execCtl) (*PushResult, error) {
	ws := ctl.ws
	res := &PushResult{
		Reserve:  ReserveVector{vec: &ws.reserve},
		Residues: &ws.resid,
	}
	res.Residues.set(0, seed, 1)
	if rmax <= 0 {
		rmax = 1e-12
	}
	if maxHops <= 0 {
		maxHops = w.TruncationHop(1e-12)
	}

	// The frontier buffer is reused across hops and sorted before processing:
	// residues and reserves must accumulate in a run-to-run deterministic
	// order for the pipeline's bit-identical-results promise, and the touched
	// list's insertion order depends on the (deterministic but arbitrary)
	// push order of the previous hop.  Filtering the flat touched list
	// replaces the map iteration + key extraction of the map-based
	// implementation with an allocation-free scan.
	frontier := ws.frontier[:0]
	defer func() { ws.frontier = frontier }()
	for k := 0; k < res.Residues.NumHops() && k < maxHops; k++ {
		hop := res.Residues.level(k)
		stop := w.Stop(k)
		frontier = frontier[:0]
		for _, v := range hop.touched {
			if hop.vals[v] > rmax*float64(g.Degree(v)) {
				frontier = append(frontier, v)
			}
		}
		slices.Sort(frontier)
		if _, err := drainFrontier(res, g, hop, frontier, stop, k, ctl, nil, 0, nil, 0); err != nil {
			return res, err
		}
	}
	return res, nil
}

// HKPushPlus implements Algorithm 4, the budgeted push used by TEA+.  It
// differs from HKPush in three ways: the push threshold is εr·δ/K·d(v), push
// operations stop once the budget np is exhausted or Inequality (11) holds
// with ε = εr·δ, and only hops below the cap K are ever pushed (hop-K residue
// is left for the walk phase).  Like HKPush it runs on a private workspace.
func HKPushPlus(src graph.Source, seed graph.NodeID, w *heatkernel.Weights, epsRel, delta float64, maxHopK int, budget int64) *PushResult {
	g := src.Snapshot()
	res, _ := hkPushPlus(g, seed, w, epsRel, delta, maxHopK, budget, execCtl{ws: NewWorkspace(g.N())})
	return res
}

// hkPushPlus is HKPushPlus with a cancellation checkpoint charged per pushed
// node, mirroring hkPush.  The Inequality-11 test is maintained
// incrementally (hopMaxes) so each re-check costs O(hops), and it runs at
// fixed points — every inequalityCheckEvery operations and at hop ends — so
// early termination, like the residue state, is a pure function of the
// query.
func hkPushPlus(g *graph.Snapshot, seed graph.NodeID, w *heatkernel.Weights, epsRel, delta float64, maxHopK int, budget int64, ctl execCtl) (*PushResult, error) {
	ws := ctl.ws
	res := &PushResult{
		Reserve:  ReserveVector{vec: &ws.reserve},
		Residues: &ws.resid,
	}
	res.Residues.set(0, seed, 1)
	if maxHopK < 1 {
		maxHopK = 1
	}
	target := epsRel * delta
	threshold := target / float64(maxHopK)

	track := &hopMaxes{max: ws.hopMax[:0]}
	defer func() { ws.hopMax = track.max }()
	track.observe(0, 1, float64(g.Degree(seed)))

	// Sorted for run-to-run determinism, exactly as in hkPush; the budget
	// cut-off therefore also lands on a deterministic frontier prefix.
	frontier := ws.frontier[:0]
	suffixMax := ws.suffixMax
	defer func() { ws.frontier, ws.suffixMax = frontier, suffixMax }()
	for k := 0; k < res.Residues.NumHops() && k < maxHopK; k++ {
		hop := res.Residues.level(k)
		stop := w.Stop(k)
		// restMax tracks the exact maximum residue norm over this hop's
		// entries that will NOT be pushed (below threshold, or cut by the
		// budget); a hop receives no new residue while it drains, so the
		// hop's exact remaining maximum at any point of the drain is
		// max(restMax, suffix maximum of the unpushed frontier tail).
		restMax := 0.0
		frontier = frontier[:0]
		for _, v := range hop.touched {
			r := hop.vals[v]
			if r == 0 {
				continue
			}
			d := float64(g.Degree(v))
			if r > threshold*d {
				frontier = append(frontier, v)
			} else if d > 0 {
				if norm := r / d; norm > restMax {
					restMax = norm
				}
			}
		}
		slices.Sort(frontier)

		// The budget cut is resolved before any push: the first frontier node
		// whose degree would take PushOperations past the budget truncates the
		// frontier, so the cut is a deterministic prefix.
		truncated := false
		if budget > 0 {
			running := res.PushOperations
			cut := len(frontier)
			for i, v := range frontier {
				deg := int64(g.Degree(v))
				if running+deg > budget {
					cut, truncated = i, true
					break
				}
				running += deg
			}
			for _, v := range frontier[cut:] {
				if d := float64(g.Degree(v)); d > 0 {
					if norm := hop.get(v) / d; norm > restMax {
						restMax = norm
					}
				}
			}
			frontier = frontier[:cut]
		}

		// suffixMax[i] = max residue norm over frontier[i:], so checkpoints
		// inside drainFrontier re-seat hop k's Inequality-11 term exactly.
		if cap(suffixMax) < len(frontier)+1 {
			suffixMax = make([]float64, len(frontier)+1)
		}
		suffixMax = suffixMax[:len(frontier)+1]
		suffixMax[len(frontier)] = 0
		for i := len(frontier) - 1; i >= 0; i-- {
			m := suffixMax[i+1]
			if d := float64(g.Degree(frontier[i])); d > 0 {
				if norm := hop.get(frontier[i]) / d; norm > m {
					m = norm
				}
			}
			suffixMax[i] = m
		}

		satisfied, err := drainFrontier(res, g, hop, frontier, stop, k, ctl, track, target, suffixMax, restMax)
		if err != nil {
			return res, err
		}
		if satisfied {
			res.SatisfiedInequality11 = true
			return res, nil
		}
		if truncated {
			// Budget exhausted: leave the remaining residues in place and
			// let TEA+ clean up with random walks.
			return res, nil
		}
		// The hop has fully drained, so its exact maximum is restMax.
		track.set(k, restMax)
		if track.sum() <= target {
			res.SatisfiedInequality11 = true
			return res, nil
		}
	}
	// Every drained hop's term was re-seated exactly and later hops only ever
	// received adds, so the incremental sum equals NormalizedMaxSum here.
	res.SatisfiedInequality11 = track.sum() <= target
	return res, nil
}
