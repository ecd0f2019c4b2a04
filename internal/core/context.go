package core

import (
	"context"
	"math"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/trace"
)

// DefaultCancelCheckEvery is the number of work units (push operations or walk
// steps) between cancellation checks when OptionsContext.CheckEvery is zero.
// Checking costs one non-blocking channel poll, so the default keeps the
// overhead far below the cost of the work itself while still bounding the
// latency of a cancellation to a few thousand edge traversals.
const DefaultCancelCheckEvery = 4096

// OptionsContext bundles the per-query execution controls that are orthogonal
// to the (d, εr, δ) approximation parameters of Options: the context whose
// cancellation or deadline aborts the query, and how often the push and walk
// loops check it.  The zero value means "no cancellation", which is the
// behaviour of the non-Context entry points.
//
// This is the seam the serving layer (internal/serve) uses to enforce
// per-query deadlines and to stop work for queries whose callers have gone
// away.
type OptionsContext struct {
	// Ctx aborts the query when done.  nil (or a context that can never be
	// canceled) disables checking entirely.
	Ctx context.Context
	// CheckEvery is the number of work units between cancellation checks.
	// Zero means DefaultCancelCheckEvery.
	CheckEvery int
	// CPU, when non-nil, coordinates the walk stage's extra goroutines with
	// a CPU budget shared across queries: a query always runs on the calling
	// goroutine, and borrows up to Options.Parallelism-1 extra tokens from
	// the gate for the duration of its walk stage.  The serving layer passes
	// its worker token pool here so intra-query shards and inter-query
	// workers draw from one core budget instead of oversubscribing.  nil
	// grants Options.Parallelism unconditionally.
	CPU CPUGate
	// Workspace, when non-nil, is the pooled per-query scratch state (dense
	// reserve/residue slabs, walk end lists, collection buffers)
	// the query runs on.  The serving layer checks one out per admitted
	// query and returns it when the query completes or is canceled; nil
	// falls back to this package's internal workspace pool.  A workspace
	// must not be shared by concurrent queries.
	Workspace *Workspace
	// Trace, when non-nil, receives the per-stage spans (push, plan, walk,
	// merge, audit) of this query; the serving layer anchors it at request arrival and
	// freezes it into a trace.Record after the query completes.  nil
	// disables tracing at the cost of one nil check per stage.
	Trace *trace.QueryTrace
	// Audit, when non-nil, enables the inline invariant checks (mass
	// conservation, score bounds, Inequality-11 verification) at the
	// pipeline's deterministic checkpoints, accumulating their outcome into
	// the struct.  With Audit.Strict set a violation aborts the query with
	// an error wrapping ErrInvariantViolation.  nil skips all checks.
	Audit *InvariantAudit
	// Snapshot, when non-nil, pins the query to one published epoch of a
	// dynamic graph: the estimator runs on exactly this view regardless of
	// updates applied concurrently.  The serving layer pins the snapshot it
	// resolves at admission so estimation, sweep and rendering all see the
	// same epoch.  nil resolves the source's current snapshot per call.
	Snapshot *graph.Snapshot
	// WalkScale, when in (0, 1), scales the analysis-derived random-walk
	// budget down to ceil(scale·nr), with a floor of one walk.  It is the
	// accuracy/cost dial the serving layer's pressure policies turn under
	// overload: the clamp is a pure function of (nr, scale), so results stay
	// bit-identical for a fixed seed at any parallelism, but the (d, εr, δ)
	// approximation guarantee no longer holds — clamped executions report
	// Stats.WalkBudgetClamped so callers can label the response degraded.
	// 0 (and anything >= 1) leaves the budget untouched.
	WalkScale float64
}

// CPUGate is a shared CPU-token budget.  Implementations must be safe for
// concurrent use.  TryAcquire never blocks: it hands out as many of the n
// requested tokens as are free right now (possibly 0); every acquired token
// must be returned with Release.
type CPUGate interface {
	TryAcquire(n int) int
	Release(n int)
}

// execCtl bundles the per-query execution controls threaded through the
// pipeline seams: the cancellation checker, the CPU gate and the workspace.
// The zero value means "no cancellation, unbounded parallelism, pooled
// workspace", the behaviour of the package-level entry points.
type execCtl struct {
	cc        *cancelChecker
	cpu       CPUGate
	ws        *Workspace
	tr        *trace.QueryTrace // nil-safe: Observe on nil is a no-op
	audit     *InvariantAudit   // nil disables invariant checks
	walkScale float64           // OptionsContext.WalkScale; 0 = unclamped
}

// newExecCtl derives the execution controls from an OptionsContext.
func newExecCtl(oc OptionsContext) execCtl {
	return execCtl{cc: newCancelChecker(oc), cpu: oc.CPU, ws: oc.Workspace, tr: oc.Trace, audit: oc.Audit, walkScale: oc.WalkScale}
}

// clampWalks applies the walk-budget scale to the analysis-derived walk count
// nr, returning the effective count and whether it was reduced.  The clamp is
// deterministic in (nr, walkScale) and independent of parallelism.
func (ctl execCtl) clampWalks(nr int64) (int64, bool) {
	if ctl.walkScale <= 0 || ctl.walkScale >= 1 || nr <= 1 {
		return nr, false
	}
	scaled := int64(math.Ceil(float64(nr) * ctl.walkScale))
	if scaled < 1 {
		scaled = 1
	}
	if scaled >= nr {
		return nr, false
	}
	return scaled, true
}

// stageClock sums a pipeline stage that runs in disjoint pieces — the
// invariant audits run after the push and again after the merge — into one
// duration, anchored at the first piece for the trace span.
type stageClock struct {
	first time.Time
	total time.Duration
}

// observe records the summed stage on tr (nil-safe), if any piece ran.
func (c *stageClock) observe(tr *trace.QueryTrace, s trace.Stage) {
	if c.total > 0 {
		tr.Observe(s, c.first, c.total)
	}
}

// audited runs check against the query's audit as one piece of the audit
// stage, timed on clock.  Without an audit it does nothing, so the library
// entry points skip the checks' input passes as well.
func (ctl execCtl) audited(clock *stageClock, check func(*InvariantAudit) error) error {
	if ctl.audit == nil {
		return nil
	}
	start := time.Now()
	err := check(ctl.audit)
	if clock.first.IsZero() {
		clock.first = start
	}
	clock.total += time.Since(start)
	return err
}

// cancelChecker amortizes context polling over work units.  A nil checker is
// valid and never cancels, so the hot loops pay a single predictable branch
// when cancellation is disabled.
type cancelChecker struct {
	ctx   context.Context
	every int
	left  int
}

// newCancelChecker returns a checker for oc, or nil when oc cannot cancel.
func newCancelChecker(oc OptionsContext) *cancelChecker {
	if oc.Ctx == nil || oc.Ctx.Done() == nil {
		return nil
	}
	every := oc.CheckEvery
	if every <= 0 {
		every = DefaultCancelCheckEvery
	}
	return &cancelChecker{ctx: oc.Ctx, every: every, left: every}
}

// tick charges cost work units and polls the context once the budget since
// the previous poll is spent.  It returns the context error when canceled.
func (c *cancelChecker) tick(cost int) error {
	if c == nil {
		return nil
	}
	if cost < 1 {
		cost = 1
	}
	c.left -= cost
	if c.left > 0 {
		return nil
	}
	c.left = c.every
	return c.err()
}

// forkValue returns an independent checker (by value, so concurrent stages
// can place forks in pre-grown workspace slots without allocating) over the
// same context and budget, for walk shards that poll concurrently.  A cancelChecker is not safe for concurrent use, so every
// shard gets its own fork.  Must not be called on a nil checker; callers
// keep a nil *cancelChecker when cancellation is disabled.
func (c *cancelChecker) forkValue() cancelChecker {
	return cancelChecker{ctx: c.ctx, every: c.every, left: c.every}
}

// err polls the context immediately (used at phase boundaries).
func (c *cancelChecker) err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// Per-query scratch state (RNGs, walk-entry buffers, score and residue
// slabs) lives in the pooled Workspace — see workspace.go.  Only the flat
// Result score vector handed across the API boundary is freshly allocated
// per query.
