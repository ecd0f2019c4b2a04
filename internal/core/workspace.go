package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"hkpr/internal/graph"
	"hkpr/internal/xrand"
)

// This file implements the zero-allocation hot path of the estimator
// pipeline: epoch-versioned dense accumulators ("sparse-set slabs") that
// replace the per-query hash maps the push and walk stages used to allocate.
//
// A Workspace bundles every per-query accumulator — the reserve slab, the
// per-hop residue slabs and the small flat buffers (frontier, suffix maxima,
// walk entries and end nodes, RNGs) — sized to the graph once and reused
// across queries via pooling.  Clearing a slab between
// queries (or hops) is O(touched): the slab's epoch is bumped and stale
// entries are recognized by their out-of-date stamp, so a million-node slab
// costs nothing to "empty" after a query that touched a few thousand nodes.
//
// Determinism: the slabs change only the storage, never the float-addition
// order.  Every accumulation happens in a fixed order (frontier order, then
// walk ends in (shard, walk) order), so results remain bit-identical for a
// fixed Options.Seed at any parallelism, and bit-identical to what a fresh
// set of maps would produce.

// denseVec is an epoch-versioned dense float accumulator over node IDs with
// an insertion-order list of touched nodes.  get/add/set are O(1) with no
// hashing; reset is O(1) amortized (an epoch bump).  The zero value is ready
// after grow+reset.  Not safe for concurrent use; concurrent stages give each
// goroutine its own denseVec.
type denseVec struct {
	vals  []float64
	stamp []uint32
	epoch uint32
	// touched lists the live nodes in first-touch order.  It may contain
	// nodes whose value was later set to zero ("deleted"); readers that need
	// the non-zero support skip zeros.
	touched []graph.NodeID
}

// grow ensures the slab covers node IDs [0, n).  When spare capacity from an
// earlier allocation covers n (dynamic graphs grow N a few nodes per epoch),
// the slab extends in place: the extension region holds fresh zero stamps,
// which are stale against any post-reset epoch (reset never leaves epoch at
// 0), so existing contents stay valid and callers need no extra reset.  Only
// a true reallocation discards contents — and over-allocates ~25% so the next
// few epochs' growth stays allocation-free.
func (d *denseVec) grow(n int) {
	if len(d.vals) >= n {
		return
	}
	if cap(d.vals) >= n && cap(d.stamp) >= n {
		d.vals = d.vals[:n]
		d.stamp = d.stamp[:n]
		return
	}
	c := n + n/4 + 8
	d.vals = make([]float64, n, c)
	d.stamp = make([]uint32, n, c)
	d.epoch = 0 // fresh stamps are zero; reset bumps past them
	d.touched = d.touched[:0]
}

// reset empties the accumulator in O(1) by bumping the epoch.  On the (rare)
// uint32 wraparound the stamp slab is zero-filled so stamps from 2^32 resets
// ago cannot alias the new epoch.
func (d *denseVec) reset() {
	d.touched = d.touched[:0]
	d.epoch++
	if d.epoch == 0 {
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.epoch = 1
	}
}

// get returns the accumulated value for v (0 when untouched).
func (d *denseVec) get(v graph.NodeID) float64 {
	if d.stamp[v] != d.epoch {
		return 0
	}
	return d.vals[v]
}

// add accumulates x onto v and returns the new value.
func (d *denseVec) add(v graph.NodeID, x float64) float64 {
	if d.stamp[v] != d.epoch {
		d.stamp[v] = d.epoch
		d.vals[v] = x
		d.touched = append(d.touched, v)
		return x
	}
	d.vals[v] += x
	return d.vals[v]
}

// set overwrites v's value.  Setting zero "deletes" the entry for readers
// that skip zeros; the node stays on the touched list either way.
func (d *denseVec) set(v graph.NodeID, x float64) {
	if d.stamp[v] != d.epoch {
		d.stamp[v] = d.epoch
		d.touched = append(d.touched, v)
	}
	d.vals[v] = x
}

// nonZero returns the number of touched entries with a non-zero value.
func (d *denseVec) nonZero() int {
	n := 0
	for _, v := range d.touched {
		if d.vals[v] != 0 {
			n++
		}
	}
	return n
}

// toScoreVector materializes the accumulator into a freshly allocated flat
// score vector sorted by node ID — the public sparse-vector form handed
// across the API boundary.  It sorts the touched list in place (the
// accumulator's insertion order is dead once a query materializes) and copies
// every touched entry, zeros included, exactly as the former map
// materialization did; only the container changes, never the accumulated
// float values, so results stay bit-identical to the map representation.
func (d *denseVec) toScoreVector() ScoreVector {
	slices.Sort(d.touched)
	out := make(ScoreVector, len(d.touched))
	for i, v := range d.touched {
		out[i] = ScoredNode{Node: v, Score: d.vals[v]}
	}
	return out
}

// Workspace is the pooled per-query scratch state of the estimator pipeline:
// dense reserve/residue slabs indexed by NodeID and the flat buffers of the
// collection and walk stages.  Slabs
// are sized to the graph on first use (the serving layer sizes them at graph
// load time via NewWorkspace) and reused for every subsequent query, so a
// steady-state query performs no heap allocation and no hashing until its
// result is materialized into the flat score-vector form at the API boundary.
//
// A Workspace must not be shared by concurrent queries.  The walk stage's
// shard goroutines are fine: each writes its own range of the end list and
// they are joined before the query returns.
type Workspace struct {
	n int // bound graph size

	reserve denseVec       // reserve q_s, later the merged score vector
	resid   ResidueVectors // per-hop residue slabs

	// Flat per-query buffers reused across hops/queries.
	frontier  []graph.NodeID
	suffixMax []float64
	hopMax    []float64
	entries   []walkEntry
	weights   []float64
	alias     xrand.Alias
	plan      walkPlan
	shardW    []int64
	shardS    []int64
	shardErr  []error
	shardRNG  []xrand.RNG
	// ends holds one walk round's end nodes in (shard, walk) order; shard i
	// writes its own contiguous range (see walkPlan.shardRound).
	ends []graph.NodeID

	// batch holds the k-lane slabs of the batched multi-source mode
	// (EstimateMany), allocated on first batched query; see batchvec.go.
	batch *batchState
}

// NewWorkspace returns a workspace bound to graphs of n nodes.  The reserve
// slab is allocated eagerly (the serving layer calls this at graph load
// time); residue slabs are allocated on first use, each sized n.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.begin(n)
	return ws
}

// begin binds the workspace to a graph of n nodes and clears all per-query
// state in O(touched).
func (ws *Workspace) begin(n int) {
	ws.n = n
	ws.reserve.grow(n)
	ws.reserve.reset()
	ws.resid.begin(n)
}

// shardCounters returns the per-shard walk/step/error slices, zeroed.
func (ws *Workspace) shardCounters(k int) (walks, steps []int64, errs []error) {
	if cap(ws.shardW) < k {
		ws.shardW = make([]int64, k)
		ws.shardS = make([]int64, k)
		ws.shardErr = make([]error, k)
	}
	ws.shardW, ws.shardS, ws.shardErr = ws.shardW[:k], ws.shardS[:k], ws.shardErr[:k]
	for i := 0; i < k; i++ {
		ws.shardW[i], ws.shardS[i], ws.shardErr[i] = 0, 0, nil
	}
	return ws.shardW, ws.shardS, ws.shardErr
}

// workspacePools recycles workspaces for callers that do not bring their own
// (package-level TEA/TEAPlus/MonteCarloOnly and estimators used outside a
// serving engine).  Pools are keyed by logical-graph identity (graph.Ident) —
// every epoch and representation of one dynamic graph shares one Ident, so
// publishing updates or compacting never strands pooled slabs; they simply
// grow with N on the next begin.  The key is a weak pointer, so a pool entry
// neither keeps its graph alive nor outlives it (a cleanup drops the entry
// once the identity is collected).  Per-graph keying means a process querying
// several graphs keeps one slab set sized to each graph instead of converging
// every pooled slab to the largest graph, which is what the old single shared
// pool did.
var workspacePools sync.Map // weak.Pointer[graph.Ident] -> *workspacePool

// workspacePool recycles one logical graph's workspaces.  A sync.Pool alone
// parks a released workspace in the releasing P's private slot, which no
// other P can take, so a caller that resumed on another core missed the pool
// and reallocated every slab: on 2 cores, hkprbench -perf saw one fresh
// workspace per few TEA+ queries.  idle keeps the most recently released
// workspace where every P finds it; further ones go to the sync.Pool, which
// the GC may empty.
type workspacePool struct {
	idle atomic.Pointer[Workspace]
	pool sync.Pool
}

// get returns a pooled workspace, or a fresh unsized one.
func (p *workspacePool) get() *Workspace {
	if ws := p.idle.Swap(nil); ws != nil {
		return ws
	}
	if ws, ok := p.pool.Get().(*Workspace); ok {
		return ws
	}
	return &Workspace{}
}

// put returns ws to the pool.
func (p *workspacePool) put(ws *Workspace) {
	if old := p.idle.Swap(ws); old != nil {
		p.pool.Put(old)
	}
}

// workspacePoolFor returns the workspace pool bound to g's logical-graph
// identity, creating (and registering the cleanup for) it on first use.
func workspacePoolFor(g *graph.Snapshot) *workspacePool {
	id := g.Ident()
	key := weak.Make(id)
	if p, ok := workspacePools.Load(key); ok {
		return p.(*workspacePool)
	}
	actual, loaded := workspacePools.LoadOrStore(key, &workspacePool{})
	if loaded {
		return actual.(*workspacePool)
	}
	runtime.AddCleanup(id, func(k weak.Pointer[graph.Ident]) {
		workspacePools.Delete(k)
	}, key)
	return actual.(*workspacePool)
}

// acquireWorkspace resolves the query's workspace: the caller-provided one
// (serving layer) bound to g, or one from g's per-graph pool plus its release
// function.
func acquireWorkspace(ctl *execCtl, g *graph.Snapshot) func() {
	if ctl.ws != nil {
		ctl.ws.begin(g.N())
		return func() {}
	}
	pool := workspacePoolFor(g)
	ws := pool.get()
	ws.begin(g.N())
	ctl.ws = ws
	return func() { pool.put(ws) }
}
