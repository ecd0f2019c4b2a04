package core

import (
	"math/bits"
	"slices"

	"hkpr/internal/graph"
)

// This file implements the slab-of-vectors storage of the batched
// multi-source execution mode (EstimateMany): dense accumulators like
// denseVec, but with k lanes of per-node float slots in one slab.  A
// per-node lane bitmask replaces the per-lane touched lists of k
// separate denseVecs: the shared touched list records which nodes any lane
// touched, and the mask records which lanes.
//
// Determinism: exactly as with denseVec, the layout changes only the storage.
// Each lane's slot receives float additions in the identical order its
// single-source run would perform them (see batchpush.go), so demultiplexed
// results are bit-identical to k independent runs.

// batchVec is a k-lane dense float accumulator over node IDs: lane i's value
// for node v lives at vals[i*n+v], mask[v] records which lanes touched v,
// and the shared touched list records first-touch order across all lanes.
//
// Unlike denseVec there is no epoch/stamp machinery: the slab keeps an
// all-zero-outside-a-batch invariant, restored by drain()
// at the end of every batch group, so a row is live exactly when its mask is
// non-zero and rows never need zero-filling on first touch.  The mask is one
// byte per node (it holds maxBatchLanes ≤ 8 lanes), an eighth of the uint64
// mask word it replaces — together these cut the slab cache traffic of every
// hot accumulate path.
type batchVec struct {
	n, kk int
	// vals is LANE-major: lane i's value for node v lives at i*n+v, so each
	// lane owns one contiguous n-float window.  Dense sweeps (the push
	// passes, demux, drain) touch the same total bytes either way because
	// they visit ascending nodes and each window line carries eight nodes;
	// what the layout buys is the per-lane scattered paths — neighbor
	// spreads and walk-result merges — whose working set shrinks from the
	// whole n·kk slab to one lane window that stays cache-resident.
	vals []float64 // n*kk, all-zero outside a batch
	mask []uint8   // per node; non-zero ⇔ the row is live this batch
	// touched lists nodes touched by any lane, in first-touch order.  A
	// node's mask tells which lanes own an entry there (zero-valued entries
	// included, mirroring denseVec's touched semantics per lane).
	touched []graph.NodeID
}

// grow ensures the slab covers n nodes with kk lanes.  Contents are
// preserved as all-zero: the invariant guarantees the reused prefix, any
// region newly exposed within capacity is cleared here, and re-windowing a
// zeroed slab over a different n is still all-zero per lane.
func (b *batchVec) grow(n, kk int) {
	if need := n * kk; cap(b.vals) < need {
		b.vals = make([]float64, need)
	} else if old := len(b.vals); old < need {
		b.vals = b.vals[:need]
		row := b.vals[old:]
		for i := range row {
			row[i] = 0
		}
	} else {
		b.vals = b.vals[:need]
	}
	if len(b.mask) < n {
		b.mask = make([]uint8, n)
	}
	b.touched = b.touched[:0]
	b.n, b.kk = n, kk
}

// addLane accumulates x onto lane i at v, marking the lane's entry exactly
// when denseVec.add would have appended to its touched list.
func (b *batchVec) addLane(v graph.NodeID, i int, x float64) {
	m := b.mask[v]
	if m == 0 {
		b.touched = append(b.touched, v)
	}
	b.mask[v] = m | 1<<i
	b.vals[i*b.n+int(v)] += x
}

// setLane overwrites lane i's value at v (zero keeps the lane entry, like
// denseVec.set).
func (b *batchVec) setLane(v graph.NodeID, i int, x float64) {
	m := b.mask[v]
	if m == 0 {
		b.touched = append(b.touched, v)
	}
	b.mask[v] = m | 1<<i
	b.vals[i*b.n+int(v)] = x
}

// addLanesBulk accumulates share[i] onto every lane i in the lanes bitmask
// for a whole neighbor batch — the batched push's one-traversal-many-lanes
// inner operation.  Lanes run outermost so each lane's window, share scalar
// and mask bit live in registers across the neighbor sweep.  Per lane the
// neighbors are still visited in adjacency order, so every (node, lane) slot
// receives its additions in the single-source order; only the shared
// touched list's first-touch order shifts, and every reader sorts it first.
func (b *batchVec) addLanesBulk(nbrs []graph.NodeID, lanes uint64, share []float64) {
	n, mask := b.n, b.mask
	for m := lanes; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		lane := b.vals[i*n : (i+1)*n]
		bit := uint8(1) << i
		s := share[i]
		for _, u := range nbrs {
			mu := mask[u]
			if mu == 0 {
				b.touched = append(b.touched, u)
			}
			mask[u] = mu | bit
			lane[u] += s
		}
	}
}

// sortTouched re-derives the touched list in ascending node order.  The mask
// is non-zero exactly on the touched set, so for dense lists a linear scan of
// the mask bytes (one byte per node, cache-friendly and branch-light) beats a
// comparison sort; sparse lists keep the sort.
func (b *batchVec) sortTouched() {
	if len(b.touched)*16 < len(b.mask) {
		slices.Sort(b.touched)
		return
	}
	tl := b.touched[:0]
	for v, m := range b.mask {
		if m != 0 {
			tl = append(tl, graph.NodeID(v))
		}
	}
	b.touched = tl
}

// drain zeroes every touched row and mask slot, restoring the all-zero
// invariant for the slab's next batch, and empties the touched list.
func (b *batchVec) drain() {
	for i := 0; i < b.kk; i++ {
		lane := b.vals[i*b.n : (i+1)*b.n]
		for _, v := range b.touched {
			lane[v] = 0
		}
	}
	for _, v := range b.touched {
		b.mask[v] = 0
	}
	b.touched = b.touched[:0]
}

// batchResidues is the k-lane counterpart of ResidueVectors: per-hop batchVec
// slabs activated (and cleared) on demand.
type batchResidues struct {
	n, kk  int
	active int
	levels []batchVec
}

func (r *batchResidues) begin(n, kk int) {
	r.n, r.kk = n, kk
	r.active = 0
}

// level returns hop k's slab, activating (and clearing) levels up to k.
func (r *batchResidues) level(k int) *batchVec {
	for r.active <= k {
		if r.active == len(r.levels) {
			r.levels = append(r.levels, batchVec{})
		}
		b := &r.levels[r.active]
		b.grow(r.n, r.kk)
		r.active++
	}
	return &r.levels[k]
}

// batchState bundles the per-batch accumulators hung off a Workspace: the
// k-lane reserve and residue slabs and the small shared scan buffers.  Like
// every other workspace slab it is sized on first use and recycled with the
// workspace.
type batchState struct {
	kk      int
	reserve batchVec
	resid   batchResidues
	share   []float64 // per-lane spread share of the node being scanned
	union   []graph.NodeID
	lanes   []batchLane

	// Scratch for the fused all-lanes read-side sweeps (reserveMasses,
	// residStats); one slot per lane.
	massR, massD []float64
	nonZero      []int
	maxHop       []int

	// Per-lane walk-entry buffers filled by residStats' fused collection
	// (the batch counterpart of Workspace.entries/weights).  Lanes run their
	// walk stages sequentially, but collection is one shared pass, so each
	// lane needs its own buffer; the cost is kk× the single query's entry
	// memory, on top of the residue slabs' kk×.
	entries [][]walkEntry
	weights [][]float64
}

func (st *batchState) begin(n, kk int) {
	st.kk = kk
	st.reserve.grow(n, kk)
	st.resid.begin(n, kk)
	if cap(st.share) < kk {
		st.share = make([]float64, kk)
		st.massR = make([]float64, kk)
		st.massD = make([]float64, kk)
		st.nonZero = make([]int, kk)
		st.maxHop = make([]int, kk)
	}
	st.share = st.share[:kk]
	st.massR = st.massR[:kk]
	st.massD = st.massD[:kk]
	st.nonZero = st.nonZero[:kk]
	st.maxHop = st.maxHop[:kk]
	for len(st.entries) < kk {
		st.entries = append(st.entries, nil)
		st.weights = append(st.weights, nil)
	}
	st.entries = st.entries[:kk]
	st.weights = st.weights[:kk]
}

// drain restores the all-zero invariant on every slab the batch touched, so
// the pooled workspace can host the next batch without any O(n) clearing.
// teaGroup defers it unconditionally: even an error or panic mid-batch must
// not return a dirty slab to the pool.
func (st *batchState) drain() {
	st.reserve.drain()
	for k := 0; k < st.resid.active; k++ {
		st.resid.levels[k].drain()
	}
}

// batchFor returns the workspace's batch state bound to kk lanes over the
// workspace's current graph size, clearing all per-batch state.
func (ws *Workspace) batchFor(kk int) *batchState {
	if ws.batch == nil {
		ws.batch = &batchState{}
	}
	ws.batch.begin(ws.n, kk)
	return ws.batch
}
