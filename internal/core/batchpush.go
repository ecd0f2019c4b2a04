package core

import (
	"fmt"
	"math/bits"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
)

// This file implements the batched HK-Push shared scan of EstimateMany: one
// frontier traversal per hop pushes residue for up to maxBatchLanes sources
// at once, bit-identical to each source's single-source push.
//
// Why a shared scan is exact: float addition order only matters per
// accumulator slot, and every slot is private to one lane.  The scan walks
// the sorted UNION of the lanes' hop-k frontiers; the subsequence of union
// nodes where lane i is active (its residue above threshold) is exactly lane
// i's own sorted frontier, so lane i's reserve slot and hop-(k+1) slots
// receive their additions in precisely the order its single-source
// drainFrontier would perform them: every lane adds its neighbor shares
// straight into hop k+1, as the serial push does.

// maxBatchLanes caps the lanes of one shared pass; larger EstimateMany calls
// run as sequential groups of maxBatchLanes.  Memory per batch scales as
// (active hop levels)·n·kk, roughly kk× a single query's residue slabs, and
// the push is bound by per-lane slab traffic, so the best width is set by
// how many lane windows stay cache-resident, not by how much traversal a
// wider pass could share: on the 10k-node bench graph, 4-lane groups beat
// both 2-lane (less traversal sharing) and 8-lane (hot set outgrows the
// cache) by ~15%.  Lane masks still travel in uint64s sized for up to 8
// lanes, so raising this back costs only re-measuring.
const maxBatchLanes = 4

// batchLane is one source's state inside a batch group: its cancellation
// checker and audit, the single-source push emulation state, and the per-lane
// statistics mirrored from the single-source Stats.
type batchLane struct {
	seed  graph.NodeID
	cc    *cancelChecker
	audit *InvariantAudit
	err   error // once set, the lane is dead and produces no result

	// hops emulates the lane's single-source ResidueVectors.NumHops(): the
	// batch residue levels are shared, but a lane takes part in hop k only
	// once one of its pushes has spread residue there, like the single-source
	// hop loop.
	hops int

	// Per-lane statistics, bit-identical to the lane's single-source run.
	ops   int64
	nodes int64

	// Walk/collection stage results (filled by the group driver).
	alpha        float64
	walks        int64
	steps        int64
	walkClamped  bool
	walkPlanned  int64
	walkShards   int
	walkWorkers  int
	entriesLen   int
	residNonZero int
	maxHop       int
	pushTime     time.Duration
	walkTime     time.Duration
	mergeTime    time.Duration
	planTime     time.Duration
	auditClock   stageClock
}

// liveMask returns the bitmask of lanes that have not died.
func liveMask(lanes []batchLane) uint64 {
	var m uint64
	for i := range lanes {
		if lanes[i].err == nil {
			m |= 1 << i
		}
	}
	return m
}

// batchPushTEA runs the HK-Push hop loop for every live lane through one
// shared scan per hop.  Lane state (counters, residues, reserve lanes,
// errors) is left on the lanes and the batch slabs; a lane that hits
// cancellation dies individually without aborting the others.
func batchPushTEA(g *graph.Snapshot, st *batchState, lanes []batchLane, w *heatkernel.Weights, rmax float64, maxHops int) {
	live := liveMask(lanes)
	for k := 0; k < maxHops && live != 0; k++ {
		// Lanes participate in hop k only while their emulated NumHops
		// exceeds k, exactly like the single-source hop-loop bound.
		var participating uint64
		for m := live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if lanes[i].hops > k {
				participating |= 1 << i
			}
		}
		if participating == 0 {
			return
		}
		hop := st.resid.level(k)
		stop := w.Stop(k)

		// Sort this hop's touched list before scanning it: nothing appends to
		// level k once hop k-1 has drained, and the sorted list makes the
		// union come out sorted for free and leaves the level ascending for
		// the post-push sweeps.
		hop.sortTouched()

		// Pass 1: the union frontier.  Lane membership uses the
		// single-source threshold r > rmax·d(v).
		union := st.union[:0]
		hvals, hn := hop.vals, hop.n
		for _, v := range hop.touched {
			avail := uint64(hop.mask[v]) & participating
			if avail == 0 {
				continue
			}
			thr := rmax * float64(g.Degree(v))
			for m := avail; m != 0; m &= m - 1 {
				if hvals[bits.TrailingZeros64(m)*hn+int(v)] > thr {
					union = append(union, v)
					break
				}
			}
		}
		st.union = union

		// Pass 2: the shared scan over the sorted union frontier.
		var next *batchVec
		for _, v := range union {
			deg := g.Degree(v)
			degF := float64(deg)
			thr := rmax * degF
			var act, spread uint64
			var stopR [maxBatchLanes]float64
			for m := uint64(hop.mask[v]) & participating; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				r := hvals[i*hn+int(v)]
				if r <= thr {
					continue
				}
				act |= 1 << i
				stopR[i] = stop * r
				if sp := (1 - stop) * r; sp > 0 && deg > 0 {
					st.share[i] = sp / degF
					spread |= 1 << i
					if ln := &lanes[i]; ln.hops < k+2 {
						ln.hops = k + 2 // lazy activation, as in the serial push
					}
				}
				// The single-source push zeroes v after its neighbor loop;
				// the value is read once either way.
				hvals[i*hn+int(v)] = 0
			}
			if act == 0 {
				continue
			}
			// One fused reserve-row update for every active lane: slot (v, i)
			// receives the same single stop·r add it would get lane by lane,
			// with one mask word touched instead of kk addLane calls.
			if st.reserve.mask[v] == 0 {
				st.reserve.touched = append(st.reserve.touched, v)
			}
			st.reserve.mask[v] |= uint8(act)
			rvals, rn := st.reserve.vals, st.reserve.n
			for m := act; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				rvals[i*rn+int(v)] += stopR[i]
			}
			if spread != 0 {
				if next == nil {
					next = st.resid.level(k + 1)
				}
				next.addLanesBulk(g.Neighbors(v), spread, st.share)
			}
			for m := act; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				ln := &lanes[i]
				ln.ops += int64(deg)
				ln.nodes++
				if err := ln.cc.tick(int(deg)); err != nil {
					ln.err = fmt.Errorf("core: TEA push phase: %w", err)
					live &^= 1 << i
					participating &^= 1 << i
				}
			}
		}
	}
}

// Read-side sweeps over the shared batch slabs.  Extra levels activated by
// other lanes hold zero values for this lane and change nothing.  They run
// once for ALL lanes — one contiguous pass over each slab row instead of kk
// strided per-lane passes, which is where a k-lane batch would otherwise pay
// k× the single query's sweep traffic.

// reserveMasses sums every lane's reserve in shared-touched order (the batch
// counterpart of denseVec.massUnordered; each lane's sum order is unchanged
// by the fusion, and the audit tolerance absorbs order-dependent rounding,
// see massUnordered).
func (st *batchState) reserveMasses(mass []float64) {
	b := &st.reserve
	for i := range mass {
		lane := b.vals[i*b.n : (i+1)*b.n]
		s := 0.0
		for _, v := range b.touched {
			s += lane[v]
		}
		mass[i] = s
	}
}

// residStats is the batch counterpart of collectWalkEntries plus the
// ResidueVectors read-side accessors, fused for every lane into one
// contiguous pass over the residue levels.  Residues are non-negative, so
// r != 0 ⇔ r > 0 and the walk-entry set coincides with the non-zero set.
// For each lane it computes the total residue mass (summed in (hop,
// sorted-touched) order; skipping exact zeros leaves each sum bit-identical),
// the non-zero entry count (the lane's ResidueVectors.NonZeroEntries), the
// largest hop with non-zero residue, -1 when none (the lane's
// ResidueVectors.MaxHopWithMass), and the (hop, node)-sorted positive-residue
// walk entries its single-source collectWalkEntries would produce — every
// level's touched list is ascending by the time this runs (teaGroup sorts
// them after the push), so appending level by level needs no per-lane sort.
func (st *batchState) residStats(mass []float64, nonZero, maxHop []int) {
	for i := range mass {
		mass[i], nonZero[i], maxHop[i] = 0, 0, -1
		st.entries[i] = st.entries[i][:0]
		st.weights[i] = st.weights[i][:0]
	}
	kk := st.kk
	for k := 0; k < st.resid.active; k++ {
		hop := &st.resid.levels[k]
		for i := 0; i < kk; i++ {
			lane := hop.vals[i*hop.n : (i+1)*hop.n]
			for _, v := range hop.touched {
				if r := lane[v]; r != 0 {
					mass[i] += r
					nonZero[i]++
					maxHop[i] = k
					st.entries[i] = append(st.entries[i], walkEntry{node: v, hop: k, residue: r})
					st.weights[i] = append(st.weights[i], r)
				}
			}
		}
	}
}
