// Package serve is the concurrent query-serving engine that sits between the
// public hkpr API and the internal/core estimators.  It turns the library's
// one-loaded-graph/many-independent-queries deployment — the paper's §1
// interactive-exploration scenario at production traffic — into a managed
// subsystem:
//
//   - a worker-pool scheduler with a bounded admission queue: at most Workers
//     queries execute at once, at most QueueDepth more wait, and anything
//     beyond that is shed immediately with ErrOverloaded instead of piling up
//     latency;
//   - token-based CPU accounting: workers and each query's Monte-Carlo walk
//     shards (core's sharded walk stage behind a serial push, enabled by
//     Config.Parallelism) draw from one CPUTokens
//     budget, so an idle engine spends its whole budget on a single heavy
//     query while a loaded engine degrades gracefully to one token per
//     query; intra-query stages never push combined concurrency past the
//     budget (set CPUTokens to the core count to make that a strict
//     no-oversubscription guarantee — the default,
//     max(Workers, GOMAXPROCS), deliberately keeps a Workers > GOMAXPROCS
//     configuration's inter-query concurrency intact);
//   - adaptive per-query parallelism (Config.Adaptive): requests that do not
//     pin their own parallelism get one chosen from the live admission-queue
//     depth and free CPU tokens — an idle engine runs wide queries, a
//     saturated one degrades them to serial — with the choice surfaced in
//     Response.Parallelism, the stats snapshot and the Prometheus gauges;
//   - per-query cancellation: every execution runs under a context derived
//     from the engine's lifetime, the configured DefaultTimeout and the
//     caller's deadline, threaded into the push/walk loops of internal/core
//     through the core.OptionsContext seam, so abandoned or timed-out queries
//     stop consuming CPU within a few thousand edge traversals;
//   - a sharded, byte-budgeted LRU result cache keyed by the resolved query
//     parameters (seed, method, t, εr, δ, …), so repeated queries — the common
//     case when many users explore the same neighbourhood — cost a map lookup.
//     Cached responses hold immutable flat score vectors (core.ScoreVector)
//     with exact byte accounting and are served zero-copy: callers get a
//     read-only view of the cached vector, never a defensive copy;
//   - request coalescing (singleflight): concurrent identical cacheable
//     queries execute the underlying estimator once and share the result;
//   - shared per-graph state: one heat-kernel weight table (via the
//     core.Estimator) and pooled RNGs and walk buffers inside core, so the
//     steady-state hot path allocates little beyond the result itself;
//   - a metrics core (request/execution counters, cache hit/miss, coalesced,
//     shed, latency histogram, queue depth) exposed as a Snapshot and in
//     Prometheus text format;
//   - a live-update path (Engine.ApplyUpdates) for engines built over a
//     *graph.Dynamic: update batches publish a new epoch-versioned snapshot
//     while in-flight queries keep reading the epoch they pinned at admission,
//     and cache invalidation is scoped — only entries whose seed lies within
//     Config.InvalidateRadius hops of an updated edge are dropped, everything
//     else keeps serving zero-copy hits.
//
// Responses handed out by the engine may be shared with the cache and with
// coalesced callers; treat Response.Result and Response.Sweep as read-only.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hkpr/internal/cluster"
	"hkpr/internal/core"
	"hkpr/internal/graph"
	"hkpr/internal/trace"
)

// Method identifiers accepted by Request.Method.  They match the public API's
// clusterer method names; the empty string means MethodTEAPlus.
const (
	MethodTEAPlus    = "tea+"
	MethodTEA        = "tea"
	MethodMonteCarlo = "monte-carlo"
)

// Errors returned by Engine.Do.
var (
	// ErrOverloaded is returned when the admission queue is full; the caller
	// should back off (HTTP 503 territory).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrClosed is returned for queries submitted to (or still queued in) an
	// engine that has been closed.
	ErrClosed = errors.New("serve: engine closed")
	// ErrUnknownMethod is returned (wrapped) for a Request.Method outside the
	// supported set; callers can errors.Is against it to map to a 4xx.
	ErrUnknownMethod = errors.New("serve: unknown method")
	// ErrStaticGraph is returned by ApplyUpdates when the engine was built
	// over a plain immutable graph rather than a *graph.Dynamic.
	ErrStaticGraph = errors.New("serve: engine serves a static graph")
)

// DefaultCacheBytes is the result-cache budget when Config.CacheBytes is 0.
const DefaultCacheBytes int64 = 64 << 20

// DefaultInvalidateRadius is the scoped-invalidation neighborhood radius when
// Config.InvalidateRadius is 0: cached results whose seed lies within this
// many hops of an updated edge's endpoints are dropped on ApplyUpdates.
const DefaultInvalidateRadius = 2

// Config tunes an Engine.  The zero value gives GOMAXPROCS workers, a queue
// of 4× that, a 64 MiB cache, serial queries over a GOMAXPROCS-sized CPU
// token budget, and no default timeout.
type Config struct {
	// Workers is the number of concurrently executing queries.  <= 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (queries admitted but not yet
	// executing).  <= 0 means 4×Workers.
	QueueDepth int
	// CacheBytes is the result-cache budget in bytes.  0 means
	// DefaultCacheBytes; negative disables caching (and with it coalescing,
	// which is keyed the same way).
	CacheBytes int64
	// DefaultTimeout bounds each query's execution when the caller's context
	// carries no deadline.  0 means no timeout.
	DefaultTimeout time.Duration
	// CancelCheckEvery is the number of work units (push operations or walk
	// steps) between cancellation checks inside core.  0 means
	// core.DefaultCancelCheckEvery.
	CancelCheckEvery int
	// Parallelism is the default per-query walk-stage parallelism: queries
	// whose Opts.Parallelism is zero run their Monte-Carlo walk shards on up
	// to this many goroutines, subject to free CPU tokens.  <= 1 keeps
	// queries serial.  Results are bit-identical for a given RNG seed at any
	// parallelism, so this knob (and per-query overrides of it) does not
	// fragment the result cache.
	Parallelism int
	// CPUTokens is the shared CPU budget (in goroutine tokens) that
	// inter-query workers and intra-query walk shards draw from.  Each
	// executing query holds one token; its walk stage borrows up to
	// Parallelism-1 extras only while they are free, so
	// combined concurrency never exceeds the budget and a loaded engine
	// degrades toward one token per query.  <= 0 means
	// max(Workers, GOMAXPROCS), which preserves the configured worker
	// concurrency even when Workers exceeds the core count; set
	// CPUTokens = GOMAXPROCS explicitly if you want a strict
	// never-more-goroutines-than-cores guarantee.
	CPUTokens int
	// Adaptive, when true, picks each query's parallelism from the engine's
	// current load instead of the static Parallelism default: a request that
	// does not pin Opts.Parallelism gets
	//
	//	P = 1 + freeCPUTokens / (queueDepth + 1)
	//
	// so an idle engine fans a lone query across the whole token budget
	// while a saturated admission queue degrades queries to P = 1.
	// Parallelism, when set (>= 1, including an explicit 1 for
	// always-serial), acts as a ceiling on the adaptive choice; 0 leaves it
	// uncapped.  The
	// chosen P is only a hint threaded through the CPU gate — actual extra
	// goroutines are still borrowed token by token, so adaptivity can never
	// oversubscribe the budget.  Because results are bit-identical at any
	// parallelism, adaptivity never fragments the cache or changes output.
	Adaptive bool
	// AdaptiveEWMA is the smoothing factor α ∈ (0, 1] applied to the queue
	// depth the adaptive formula sees: each admission observes
	//
	//	smoothed = α·depth + (1-α)·smoothed
	//
	// so bursty arrivals no longer whipsaw P between serial and full-width
	// query to query — the engine reacts at a time constant of roughly 1/α
	// admissions.  0 (the default) means 1, i.e. the raw instantaneous
	// depth, preserving the historical behaviour.  Ignored unless Adaptive.
	AdaptiveEWMA float64
	// TraceBuffer is the capacity of the ring buffer holding the most
	// recently completed query traces, read through Engine.TraceRecords (the
	// HTTP server's /debug/queries endpoint).  <= 0 (the default) disables
	// the ring; individual requests can still ask for their own trace with
	// Request.Trace.
	TraceBuffer int
	// SlowQueryThreshold, when > 0, logs a one-line per-stage breakdown for
	// every execution whose elapsed time reaches the threshold.  0 disables
	// the slow-query log.
	SlowQueryThreshold time.Duration
	// StrictInvariants makes the always-on inline invariant checks (mass
	// conservation, score bounds, Inequality-11 verification) abort a
	// violating query with an error wrapping core.ErrInvariantViolation
	// instead of only counting the violation in the metrics.
	StrictInvariants bool
	// BatchWindow, when > 0, holds each admitted executable query for up to
	// this long so concurrent queries with identical resolved options (any
	// seed node) can share one batched core execution
	// (core.EstimateMany's shared frontier scan) instead of running k separate
	// estimator passes.  Results are bit-identical to unbatched execution;
	// the window trades up to BatchWindow of added latency for amortized
	// per-query cost under concurrent load.  Cache hits and coalesced callers
	// never wait; with batching enabled, admission control counts queries
	// waiting in the window against QueueDepth.  0 disables batching.
	BatchWindow time.Duration
	// BatchMaxK caps the sources of one batched execution; a window flushes
	// early when it fills.  <= 0 means 8 (the core batch engine's lane-group
	// width, so a full window runs as exactly one shared scan).  Ignored
	// unless BatchWindow > 0.
	BatchMaxK int
	// InvalidateRadius is the neighborhood radius (in hops from every
	// endpoint of an updated edge) within which cached results are dropped
	// when ApplyUpdates publishes a new epoch.  Heat-kernel mass is
	// push-local — an edge flip perturbs scores sharply near its endpoints
	// and negligibly far away — so entries whose seed lies outside the ball
	// survive the update and keep serving zero-copy hits.  <= 0 means
	// DefaultInvalidateRadius.  Ignored over a static graph.
	InvalidateRadius int
	// Pressure tunes the overload controller and its degraded-mode policies
	// (pressure tiers, stale-while-revalidate, budget clamps, Retry-After).
	// The zero value enables the controller with defaults; set
	// Pressure.Disabled for the legacy binary-shed behaviour.
	Pressure PressureConfig
	// ExecGate, when set, runs in the worker immediately before each
	// estimator call (for batched executions, once per batch).  It is the
	// fault-injection seam the chaos/soak harness uses to hold executions in
	// flight or add latency; leave nil in production.
	ExecGate func(*Request)
}

// withDefaults resolves the zero fields of c.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.CPUTokens <= 0 {
		c.CPUTokens = c.Workers
		if p := runtime.GOMAXPROCS(0); p > c.CPUTokens {
			c.CPUTokens = p
		}
	}
	if c.AdaptiveEWMA <= 0 || c.AdaptiveEWMA > 1 {
		c.AdaptiveEWMA = 1
	}
	if c.BatchWindow > 0 && c.BatchMaxK <= 0 {
		c.BatchMaxK = defaultBatchMaxK
	}
	if c.InvalidateRadius <= 0 {
		c.InvalidateRadius = DefaultInvalidateRadius
	}
	if !c.Pressure.Disabled {
		c.Pressure = c.Pressure.withDefaults()
	}
	return c
}

// cpuTokens is the shared CPU budget implementing core.CPUGate: a buffered
// channel holding the free tokens.  Workers block for their one token per
// query; walk shards borrow extras non-blockingly.
type cpuTokens struct {
	free chan struct{}
}

func newCPUTokens(n int) *cpuTokens {
	p := &cpuTokens{free: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.free <- struct{}{}
	}
	return p
}

// acquire blocks for one token, giving up when ctx is done.
func (p *cpuTokens) acquire(ctx context.Context) bool {
	select {
	case <-p.free:
		return true
	case <-ctx.Done():
		return false
	}
}

// TryAcquire hands out as many of the n requested tokens as are free.
func (p *cpuTokens) TryAcquire(n int) int {
	got := 0
	for got < n {
		select {
		case <-p.free:
			got++
		default:
			return got
		}
	}
	return got
}

// Release returns n tokens to the pool.
func (p *cpuTokens) Release(n int) {
	for i := 0; i < n; i++ {
		p.free <- struct{}{}
	}
}

// freeTokens reports the tokens currently available.
func (p *cpuTokens) freeTokens() int { return len(p.free) }

// Request describes one HKPR query.
type Request struct {
	// Seed is the query node.
	Seed graph.NodeID
	// Method is one of MethodTEAPlus, MethodTEA, MethodMonteCarlo; ""
	// means MethodTEAPlus.
	Method string
	// Opts carries per-query overrides (RNG Seed, EpsRel, Delta, …); zero
	// fields inherit the engine's estimator settings.
	Opts core.Options
	// Sweep requests the sweep cut over the HKPR vector in addition to the
	// vector itself.
	Sweep bool
	// TopK, when > 0, asks for the k best degree-normalized scores rendered
	// into Response.Top (descending, ties by node ID).  It is a pure
	// rendering knob: the full vector is still computed and cached, the
	// truncation happens per caller, and TopK is deliberately excluded from
	// the cache key so requests differing only in TopK share one entry.
	TopK int
	// SweepK, when > 0, asks for a sweep cut bounded to the k best
	// degree-normalized nodes, rendered into Response.Sweep.  Like TopK it
	// is a per-caller rendering knob excluded from the cache key: the
	// cached entry holds only the vector, and the bounded sweep runs on the
	// caller's copy.  Ignored when Sweep already requested the full sweep
	// (which is part of the cached result).
	SweepK int
	// Trace, when true, attaches the per-stage execution trace to
	// Response.Trace.  Like TopK it is excluded from the cache key; a cache
	// hit returns a trace of the lookup itself.
	Trace bool
	// NoCache bypasses the result cache and coalescing for this request
	// (it neither reads nor populates the cache).
	NoCache bool

	// revalidate marks a background stale-arena recomputation: the request
	// skips the stale-serve path (it exists to replace the stale entry, not
	// to be answered by it).  Set only by Engine.maybeRevalidate.
	revalidate bool
}

// Degraded labels carried by Response.Degraded.  A response is labeled if and
// only if a pressure policy changed its accuracy contract; parallelism caps
// never change results and are never labeled.
const (
	// DegradedStale: a radius-invalidated cached result served under
	// pressure while a background singleflight recomputes it.  The response's
	// Epoch reports the pre-update epoch it was computed at.
	DegradedStale = "stale"
	// DegradedClamped: the execution ran under reduced accuracy budgets (walk
	// count and/or bounded sweep); Response.Effective echoes the knobs.
	DegradedClamped = "clamped"
)

// EffectiveOptions echoes the execution knobs a clamping policy altered, so a
// degraded response's accuracy contract is explicit.
type EffectiveOptions struct {
	// WalkScale is the walk-budget scale the execution ran under (1 when the
	// budget was untouched).
	WalkScale float64 `json:"walk_scale,omitempty"`
	// WalkBudget is the random-walk count actually performed;
	// WalkBudgetPlanned is the count the (d, εr, δ) analysis asked for.
	WalkBudget        int64 `json:"walk_budget,omitempty"`
	WalkBudgetPlanned int64 `json:"walk_budget_planned,omitempty"`
	// SweepK is the bound applied to a requested full sweep (0 when the sweep
	// was untouched or not requested).
	SweepK int `json:"sweep_k,omitempty"`
}

// Response is the outcome of one query.  Result and Sweep may be shared with
// the cache and with coalesced callers and must be treated as read-only.
type Response struct {
	// Seed echoes the query node.
	Seed graph.NodeID
	// Method is the resolved method identifier.
	Method string
	// Result is the approximate HKPR vector.
	Result *core.Result
	// Sweep is the sweep-cut outcome, present when Request.Sweep was set.
	Sweep *cluster.SweepResult
	// Top holds the Request.TopK best degree-normalized scores (descending,
	// ties by node ID), present when TopK was > 0.  Unlike Result and Sweep
	// it is computed per caller and owned by the caller.
	Top []cluster.ScoredNode
	// Cached reports that the response was served from the result cache.
	Cached bool
	// Coalesced reports that this caller shared another in-flight execution
	// of the same query.
	Coalesced bool
	// QueueWait is the time the query spent in the admission queue (zero for
	// cache hits and coalesced callers).
	QueueWait time.Duration
	// Elapsed is the execution time of the estimator (and sweep), zero for
	// cache hits.
	Elapsed time.Duration
	// Parallelism is the per-query parallelism the engine resolved for this
	// execution: the request's own pin, the adaptive choice, or the engine
	// default.  The goroutines actually used additionally depend on free CPU
	// tokens (see Result.Stats.WalkParallelism).  For
	// cached responses it reports the value used when the entry was computed.
	Parallelism int
	// Trace is the per-stage execution trace, present when Request.Trace was
	// set.  Like Result it may be shared (with the trace ring) and must be
	// treated as read-only.  Never stored in the cache: a cache hit carries
	// a fresh trace of the lookup itself.
	Trace *trace.Record
	// Epoch is the graph snapshot epoch the query executed against.  Every
	// stage of the execution — estimation, sweep, caching — saw exactly this
	// epoch; on a static graph it is always 0.  For cached responses it
	// reports the epoch the entry was computed at (scoped invalidation
	// guarantees the entry is still valid at the current epoch); for
	// stale-degraded responses it reports the pre-update epoch the parked
	// entry was computed at.
	Epoch uint64
	// Degraded labels a response served under a pressure policy:
	// DegradedStale or DegradedClamped.  Empty for full-fidelity responses.
	// Degraded responses never populate the result cache, so post-pressure
	// queries always recompute at full accuracy.
	Degraded string
	// Effective echoes the clamped execution knobs when Degraded ==
	// DegradedClamped (zero otherwise).
	Effective EffectiveOptions
}

// Engine is the query-serving subsystem.  Create one per loaded graph with
// New, issue queries with Do, and release its workers with Close.  All
// methods are safe for concurrent use.
type Engine struct {
	est *core.Estimator
	// src is the estimator's graph source; every execution pins one immutable
	// epoch snapshot from it at admission.  dyn is src when the source is
	// live-updatable (a *graph.Dynamic), nil over a static graph; it gates the
	// ApplyUpdates path and the stale-epoch cache guard.
	src graph.Source
	dyn *graph.Dynamic
	cfg Config

	cache   *resultCache // nil when disabled
	metrics *Metrics
	cpu     *cpuTokens
	batch   *batcher // nil unless Config.BatchWindow > 0

	// pressure is the overload controller (nil when Config.Pressure.Disabled)
	// and stale the stale-while-revalidate arena it serves from (nil when the
	// cache or the arena fraction is disabled).  The arena's byte budget is
	// carved out of Config.CacheBytes, so cache + arena never exceed the
	// configured cache budget.
	pressure *pressureController
	stale    *staleArena

	// workspaces recycles the per-query dense scratch state (core.Workspace:
	// reserve/residue slabs, walk end lists, collection buffers),
	// sized to the graph when the engine is built.  One workspace is checked
	// out per admitted execution and returned when the execution finishes —
	// including canceled and timed-out queries, whose internal goroutines
	// are joined before the estimator returns — so steady-state queries
	// perform no slab allocation.  wsOut tracks checkouts for the hygiene
	// metric (it should fall back to 0 whenever the engine is idle).
	workspaces sync.Pool
	wsOut      atomic.Int64

	// queueEWMA holds the exponentially smoothed admission-queue depth (as
	// math.Float64bits) the adaptive parallelism choice reads; see
	// Config.AdaptiveEWMA.
	queueEWMA atomic.Uint64

	queue   chan *task
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// ring holds the most recently completed query traces (nil when
	// Config.TraceBuffer <= 0); slowLog receives the slow-query log lines
	// (log.Printf by default, replaceable in tests).
	ring    *traceRing
	slowLog func(format string, args ...any)

	// pending counts admitted queries that have not yet passed finish (queued,
	// windowed, or executing).  Drain polls it to zero before stopping the
	// workers, so no admitted query is ever abandoned mid-execution.
	pending atomic.Int64

	mu         sync.Mutex
	flight     map[string]*task // in-flight cacheable executions, by cache key
	closed     bool             // guarded by mu; authoritative for admission
	stopped    bool             // guarded by mu; workers canceled (Close ran)
	closedFast atomic.Bool      // mirrors closed for the lock-free fast path

	// execGate, when set (tests only), runs in the worker immediately before
	// the estimator call, letting tests hold executions in flight.
	execGate func(*Request)
	// auditHook, when set (tests only), runs over the task's invariant audit
	// after execution and before its counters are folded into the metrics,
	// letting tests inject violations.
	auditHook func(*core.InvariantAudit)
}

// New builds an Engine over a prepared estimator (whose graph, weight table
// and adjusted failure probability are shared by every query) and starts its
// workers.
func New(est *core.Estimator, cfg Config) (*Engine, error) {
	if est == nil {
		return nil, errors.New("serve: nil estimator")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	src := est.Source()
	dyn, _ := src.(*graph.Dynamic)
	e := &Engine{
		est:     est,
		src:     src,
		dyn:     dyn,
		cfg:     cfg,
		metrics: newMetrics(),
		cpu:     newCPUTokens(cfg.CPUTokens),
		queue:   make(chan *task, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		flight:  make(map[string]*task),
	}
	e.metrics.GraphEpoch.Store(src.Snapshot().Epoch())
	if !cfg.Pressure.Disabled {
		e.pressure = newPressureController(cfg.Pressure)
	}
	if cfg.CacheBytes > 0 {
		// The stale arena's budget is carved out of the configured cache
		// budget: stale entries count against CacheBytes rather than leaking
		// past it.
		cacheBudget := cfg.CacheBytes
		if e.pressure != nil && cfg.Pressure.StaleFraction > 0 {
			staleBudget := int64(float64(cfg.CacheBytes) * cfg.Pressure.StaleFraction)
			if staleBudget > 0 && staleBudget < cacheBudget {
				e.stale = newStaleArena(staleBudget)
				cacheBudget -= staleBudget
			}
		}
		e.cache = newResultCache(cacheBudget)
	}
	e.execGate = cfg.ExecGate
	if cfg.TraceBuffer > 0 {
		e.ring = newTraceRing(cfg.TraceBuffer)
	}
	e.slowLog = log.Printf
	// Workspaces size to the graph at checkout-construction time; on a live
	// graph the slabs additionally grow in place as epochs add nodes (the
	// core workspace re-sizes against each execution's pinned snapshot).
	e.workspaces.New = func() any { return core.NewWorkspace(e.src.Snapshot().N()) }
	if cfg.BatchWindow > 0 {
		e.batch = newBatcher(e, cfg.BatchWindow, cfg.BatchMaxK)
		e.wg.Add(1)
		go e.batch.flusher()
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// Graph returns the current epoch's immutable snapshot of the graph the
// engine serves.  The returned view is safe to read concurrently with live
// updates and never exposes the engine's mutable state; call it again to
// observe a newer epoch.
func (e *Engine) Graph() *graph.Snapshot { return e.src.Snapshot() }

// Options returns the estimator's resolved default options.
func (e *Engine) Options() core.Options { return e.est.Options() }

// Close stops the workers, aborts in-flight executions and fails any queries
// still queued with ErrClosed.  It is idempotent; queries submitted after
// Close fail with ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.stopped = true
	e.closedFast.Store(true)
	e.mu.Unlock()
	e.cancel()
	if e.batch != nil {
		e.batch.shutdown()
	}
	e.wg.Wait()
	for {
		select {
		case t := <-e.queue:
			t.cancel()
			if t.batch != nil {
				// A batching-window container: fail its members; the container
				// itself has no waiters.
				for _, m := range t.batch {
					m.cancel()
					e.finish(m, nil, ErrClosed)
				}
				continue
			}
			e.finish(t, nil, ErrClosed)
		default:
			return nil
		}
	}
}

// drainPollInterval is how often Drain re-checks the pending-query count.
const drainPollInterval = 2 * time.Millisecond

// Drain gracefully shuts the engine down: it stops admission immediately
// (new queries fail with ErrClosed) but keeps the workers running until every
// already-admitted query — queued, held in the batching window, or executing
// — has finished, then stops the workers via Close.  Within the timeout no
// admitted query is ever abandoned mid-execution.
//
// If the backlog has not drained when the timeout expires, the engine is
// closed anyway (canceling the stragglers) and Drain reports how many queries
// were cut off.  Drain on an already-closed engine returns ErrClosed.
func (e *Engine) Drain(timeout time.Duration) error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	e.closedFast.Store(true)
	e.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for e.pending.Load() > 0 {
		if time.Now().After(deadline) {
			cut := e.pending.Load()
			e.Close()
			return fmt.Errorf("serve: drain timeout after %s: %d queries aborted", timeout, cut)
		}
		time.Sleep(drainPollInterval)
	}
	return e.Close()
}

// Do answers one query.  It blocks until the query completes, is shed
// (ErrOverloaded), or ctx is done — in which case the underlying execution is
// aborted too, unless other coalesced callers still want the result.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.closedFast.Load() {
		e.metrics.countError(ErrClosed)
		return nil, ErrClosed
	}
	method, err := normalizeMethod(req.Method)
	if err != nil {
		return nil, err
	}
	req.Method = method
	e.metrics.Requests.Add(1)
	e.observePressure()
	reqStart := time.Now()

	resolved := e.est.Resolve(req.Opts)
	key := cacheKey(method, req.Seed, req.Sweep, resolved)
	var batchKey string
	if e.batch != nil {
		// The batching-group identity: the resolved options with the seed and
		// sweep stripped — any seeds sharing these options can share one core
		// execution (the seed placeholder -1 never collides; group keys live
		// in their own map).
		batchKey = cacheKey(method, -1, false, resolved)
	}
	cacheable := !req.NoCache && e.cache != nil
	var lookupStart time.Time
	var lookupD time.Duration
	if cacheable {
		lookupStart = time.Now()
		resp, ok := e.cache.get(key)
		lookupD = time.Since(lookupStart)
		e.metrics.observeStage(trace.StageCacheLookup, lookupD)
		if ok {
			e.metrics.CacheHits.Add(1)
			out := *resp
			out.Cached = true
			out.QueueWait, out.Elapsed = 0, 0
			renderStart, renderD := e.render(&out, req)
			if req.Trace {
				qt := trace.Get(reqStart)
				qt.Seed = int64(req.Seed)
				qt.Method = method
				qt.CacheOutcome = trace.OutcomeHit
				qt.Observe(trace.StageCacheLookup, lookupStart, lookupD)
				if renderD > 0 {
					qt.Observe(trace.StageRender, renderStart, renderD)
				}
				out.Trace = qt.Finish(time.Now(), "")
				trace.Put(qt)
			}
			return &out, nil
		}
		// A miss is counted below, only once a new execution is actually
		// admitted: callers that coalesce onto an in-flight execution (or are
		// shed) would otherwise inflate the miss rate.
	}

	// Stale-while-revalidate: under a pressure tier whose policy allows it, a
	// radius-invalidated entry parked in the stale arena answers immediately
	// (zero-copy, labeled DegradedStale with its pre-update epoch) while a
	// background singleflight recomputes the fresh result.  Background
	// revalidations themselves skip this path.
	if cacheable && e.stale != nil && !req.revalidate && e.activePolicy().ServeStale {
		if out, ok := e.serveStale(key, req, reqStart); ok {
			return out, nil
		}
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.metrics.countError(ErrClosed)
		return nil, ErrClosed
	}
	if cacheable {
		// Join an in-flight execution only if it is still live: a task whose
		// last waiter abandoned it has been (or is about to be) canceled, and
		// joining it would surface a context error the new caller never
		// caused.  The waiter count going 0→1 detects the racing case.
		if t, ok := e.flight[key]; ok && t.ctx.Err() == nil {
			if t.waiters.Add(1) > 1 {
				e.mu.Unlock()
				e.metrics.Coalesced.Add(1)
				return e.wait(ctx, t, true, req)
			}
			t.waiters.Add(-1)
		}
	}
	t := e.newTask(ctx, key, req)
	if req.Trace || e.ring != nil || e.cfg.SlowQueryThreshold > 0 {
		// The execution will be traced: for the requesting caller, the debug
		// ring, or the slow-query log.  Anchored at request arrival so queue
		// wait and cache lookup land inside the trace window.
		qt := trace.Get(reqStart)
		qt.Seed = int64(req.Seed)
		qt.Method = method
		if cacheable {
			qt.CacheOutcome = trace.OutcomeMiss
			qt.Observe(trace.StageCacheLookup, lookupStart, lookupD)
		} else {
			qt.CacheOutcome = trace.OutcomeUncached
		}
		t.qt = qt
	}
	var admitted bool
	var flush *task
	// pending is incremented before the admission attempt so Drain can never
	// observe a zero count while an admitted query is still in flight; the
	// shed path takes the increment straight back.
	e.pending.Add(1)
	if e.batch != nil {
		// Batching window: the task joins (or opens) its options group instead
		// of entering the queue directly; a group filled to BatchMaxK flushes
		// here, outside the engine lock.
		flush, admitted = e.batch.add(batchKey, t)
	} else {
		select {
		case e.queue <- t:
			admitted = true
		default:
		}
	}
	if !admitted {
		e.pending.Add(-1)
	}
	if admitted && cacheable {
		e.flight[key] = t
		e.metrics.CacheMisses.Add(1)
	}
	e.mu.Unlock()
	if flush != nil {
		e.enqueueFlush(flush)
	}
	e.observeAdmission(!admitted)
	if !admitted {
		t.cancel()
		trace.Put(t.qt)
		t.qt = nil
		e.metrics.Shed.Add(1)
		e.metrics.countError(ErrOverloaded)
		if e.pressure != nil {
			// Retry-After from the controller's drain estimate; errors.Is
			// against ErrOverloaded still matches.
			return nil, &OverloadedError{RetryAfter: e.retryAfter()}
		}
		return nil, ErrOverloaded
	}
	return e.wait(ctx, t, false, req)
}

// serveStale answers req from the stale arena: the parked response is served
// zero-copy, labeled DegradedStale, with the pre-update epoch it was computed
// at, and a background revalidation is kicked off for the key (at most one at
// a time per entry).  Returns ok == false when the key has no parked entry.
func (e *Engine) serveStale(key string, req Request, reqStart time.Time) (*Response, bool) {
	lookupStart := time.Now()
	ent, ok := e.stale.get(key)
	lookupD := time.Since(lookupStart)
	if !ok {
		return nil, false
	}
	e.metrics.observeStage(trace.StageCacheLookup, lookupD)
	e.metrics.DegradedStaleServed.Add(1)
	out := *ent.resp
	out.Cached = true
	out.Degraded = DegradedStale
	out.QueueWait, out.Elapsed = 0, 0
	renderStart, renderD := e.render(&out, req)
	if req.Trace {
		qt := trace.Get(reqStart)
		qt.Seed = int64(req.Seed)
		qt.Method = req.Method
		qt.CacheOutcome = trace.OutcomeHit
		qt.Observe(trace.StageCacheLookup, lookupStart, lookupD)
		if renderD > 0 {
			qt.Observe(trace.StageRender, renderStart, renderD)
		}
		out.Trace = qt.Finish(time.Now(), "")
		trace.Put(qt)
	}
	e.maybeRevalidate(key, ent, req)
	return &out, true
}

// maybeRevalidate starts the background recomputation for a stale entry
// unless one is already running (per-entry singleflight).  The revalidation
// goes through the normal Do path — admission control, coalescing, budget
// clamps and the stale-epoch populate guard all apply — so under sustained
// pressure it may itself be shed or clamped, in which case the entry stays
// parked and the next stale serve retries.
func (e *Engine) maybeRevalidate(key string, ent *staleEntry, req Request) {
	if !ent.revalidating.CompareAndSwap(false, true) {
		return
	}
	e.metrics.Revalidations.Add(1)
	go func() {
		defer ent.revalidating.Store(false)
		r := Request{
			Seed:   req.Seed,
			Method: req.Method,
			Opts:   req.Opts,
			Sweep:  req.Sweep,

			revalidate: true,
		}
		resp, err := e.Do(context.Background(), r)
		if err != nil || resp.Degraded != "" {
			// Shed, failed, or recomputed under a clamp (which never
			// repopulates the cache): keep serving the labeled stale entry.
			return
		}
		// A full-fidelity recompute (or a cache hit from a concurrent
		// repopulation) exists at the current epoch; retire the stale entry.
		e.stale.remove(key, ent)
	}()
}

// task is one admitted execution, possibly shared by several coalesced
// callers.
type task struct {
	key      string
	req      Request
	enqueued time.Time

	// ctx governs the execution; it is canceled when the engine closes, the
	// deadline passes, or every interested caller has abandoned the query.
	ctx     context.Context
	cancel  context.CancelFunc
	waiters atomic.Int32

	// qt accumulates the execution's stage spans when this query is traced
	// (for the caller, the ring, or the slow-query log); nil otherwise.  rec
	// is the frozen record, written by the worker before done is closed, so
	// every waiter that observes completion also observes the record.  audit
	// collects the estimator's inline invariant checks — embedded by value so
	// always-on auditing costs no allocation.
	qt    *trace.QueryTrace
	rec   *trace.Record
	audit core.InvariantAudit

	// batch, when non-nil, marks this task as a batching-window container:
	// the member tasks execute as one batched core call (runBatch) and this
	// task itself never completes through finish.
	batch []*task

	done chan struct{}
	resp *Response
	err  error
}

// newTask derives the execution context: engine lifetime, then the caller's
// deadline if any, else the configured default timeout.
func (e *Engine) newTask(callerCtx context.Context, key string, req Request) *task {
	var ctx context.Context
	var cancel context.CancelFunc
	if dl, ok := callerCtx.Deadline(); ok {
		ctx, cancel = context.WithDeadline(e.baseCtx, dl)
	} else if e.cfg.DefaultTimeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, e.cfg.DefaultTimeout)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	t := &task{
		key:      key,
		req:      req,
		enqueued: time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	t.audit.Strict = e.cfg.StrictInvariants
	t.waiters.Add(1)
	return t
}

// wait blocks until t completes or ctx is done.  A caller that gives up
// detaches from the task; the last caller to leave cancels the execution.
// req carries the waiting caller's own rendering knobs (TopK, SweepK, Trace) —
// coalesced callers may each ask for a different rendering of the shared
// result.
func (e *Engine) wait(ctx context.Context, t *task, coalesced bool, req Request) (*Response, error) {
	select {
	case <-t.done:
		if t.err != nil {
			return nil, t.err
		}
		out := *t.resp
		out.Coalesced = coalesced
		renderStart, renderD := e.render(&out, req)
		if req.Trace && t.rec != nil {
			rec := t.rec
			if renderD > 0 {
				// Rendering is per caller and happens after the shared record
				// froze; extend a private copy.
				rec = rec.WithStage(trace.StageRender, renderStart, renderD)
			}
			out.Trace = rec
		}
		return &out, nil
	case <-ctx.Done():
		if t.waiters.Add(-1) == 0 {
			t.cancel()
			// Retire the abandoned task from the flight table so later
			// identical queries start fresh instead of inheriting its
			// cancellation.
			e.mu.Lock()
			if e.flight[t.key] == t {
				delete(e.flight, t.key)
			}
			e.mu.Unlock()
		}
		e.metrics.Abandoned.Add(1)
		return nil, ctx.Err()
	}
}

// worker pulls tasks off the admission queue until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.baseCtx.Done():
			return
		case t := <-e.queue:
			e.run(t)
		}
	}
}

// run executes one task and publishes its outcome.
func (e *Engine) run(t *task) {
	if t.batch != nil {
		e.runBatch(t)
		return
	}
	defer t.cancel()
	if err := t.ctx.Err(); err != nil {
		// Canceled or timed out while queued; don't waste a core on it.  The
		// trace (if any) never froze into a record, so recycle it here.
		e.metrics.Canceled.Add(1)
		trace.Put(t.qt)
		t.qt = nil
		e.finish(t, nil, err)
		return
	}
	// Every executing query holds one CPU token; its walk stage borrows
	// extras from the same pool (threaded through as the core.CPUGate), so
	// intra-query shards and inter-query workers share one core budget.
	// Waiting for the token counts as queue time.
	if !e.cpu.acquire(t.ctx) {
		e.metrics.Canceled.Add(1)
		trace.Put(t.qt)
		t.qt = nil
		e.finish(t, nil, t.ctx.Err())
		return
	}
	// The worker's token (and any extras borrowed inside execute) must be
	// back in the pool before finish wakes the caller, so a caller that
	// observed completion also observes a settled CPU budget.
	// The degraded-mode policy is resolved once per execution from the
	// controller's current tier; Nominal yields the zero policy and the
	// legacy behaviour.
	pol := e.activePolicy()
	var elapsed time.Duration
	var res *core.Result
	var chosenP int
	var snap *graph.Snapshot
	var sweepClampedK int
	resp, err := func() (*Response, error) {
		defer e.cpu.Release(1)
		wait := time.Since(t.enqueued)
		e.metrics.observeStage(trace.StageQueueWait, wait)
		t.qt.Observe(trace.StageQueueWait, t.enqueued, wait)
		if gate := e.execGate; gate != nil {
			gate(&t.req)
		}
		e.metrics.Executions.Add(1)
		e.metrics.InFlight.Add(1)
		start := time.Now()
		var err error
		res, chosenP, snap, err = e.execute(t, pol)
		var sweep *cluster.SweepResult
		if err == nil && t.req.Sweep {
			// The sweep is part of the query's work, so it runs inside the
			// timed window (Response.Elapsed and the latency histogram would
			// otherwise under-report sweep-heavy queries) and is skipped when
			// the deadline already passed or the caller is gone.  It runs on
			// the execution's pinned snapshot so estimation and sweep see one
			// epoch even if an update publishes mid-query.
			if cerr := t.ctx.Err(); cerr != nil {
				err = cerr
			} else {
				sweepStart := time.Now()
				var sw cluster.SweepResult
				if maxK := pol.MaxSweepK; maxK > 0 {
					// Tier policy: bound the sweep to the k best nodes — a
					// different (cheaper) answer, labeled DegradedClamped
					// below.
					sw = cluster.SweepK(snap, res.Scores, maxK)
					sweepClampedK = maxK
				} else {
					sw = cluster.Sweep(snap, res.Scores)
				}
				sweep = &sw
				sweepD := time.Since(sweepStart)
				e.metrics.observeStage(trace.StageSweep, sweepD)
				t.qt.Observe(trace.StageSweep, sweepStart, sweepD)
			}
		}
		elapsed = time.Since(start)
		e.metrics.InFlight.Add(-1)
		e.metrics.observeLatency(elapsed)
		if err != nil {
			return nil, err
		}
		out := &Response{
			Seed:        t.req.Seed,
			Method:      t.req.Method,
			Result:      res,
			Sweep:       sweep,
			QueueWait:   wait,
			Elapsed:     elapsed,
			Parallelism: chosenP,
			Epoch:       snap.Epoch(),
		}
		e.labelClamped(out, res, pol, sweepClampedK)
		return out, nil
	}()
	// Estimator-phase histograms come straight from the timings core already
	// took (the per-query trace reuses the same measurements, so traces and
	// histograms agree exactly).  Zero durations are skipped: a Monte-Carlo
	// query has no push phase and must not pollute that stage's buckets.
	if res != nil {
		for _, sd := range estimatorStages(&res.Stats) {
			if sd.d > 0 {
				e.metrics.observeStage(sd.stage, sd.d)
			}
		}
	}
	// Invariant bookkeeping: the test hook may inject violations, then the
	// per-query counters fold into the engine totals, then strict mode turns
	// any violation into a failure (violations surfaced by the hook didn't
	// abort inside core, so they are enforced here).
	if hook := e.auditHook; hook != nil {
		hook(&t.audit)
	}
	e.metrics.foldAudit(&t.audit)
	if err == nil && e.cfg.StrictInvariants && t.audit.TotalViolations() > 0 {
		err = fmt.Errorf("%w: %s", core.ErrInvariantViolation, t.audit.FirstViolation)
		resp = nil
	}
	// Freeze the trace into the shared record before finish wakes waiters.
	if t.qt != nil {
		qt := t.qt
		t.qt = nil
		qt.Parallelism = chosenP
		if res != nil {
			qt.Stats = res.Stats
		}
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		rec := qt.Finish(time.Now(), errMsg)
		trace.Put(qt)
		rec.InvariantChecks = t.audit.Checks
		rec.InvariantViolations = t.audit.TotalViolations()
		t.rec = rec
		if e.ring != nil {
			e.ring.add(rec)
		}
		if thr := e.cfg.SlowQueryThreshold; thr > 0 && elapsed >= thr {
			e.slowLog("hkpr: slow query seed=%d method=%s elapsed=%s stages: %s",
				t.req.Seed, t.req.Method, elapsed.Round(time.Microsecond), rec.StageSummary())
		}
	}
	if err != nil {
		if t.ctx.Err() != nil {
			e.metrics.Canceled.Add(1)
		} else {
			e.metrics.Errors.Add(1)
		}
		e.finish(t, nil, err)
		return
	}
	if !t.req.NoCache && e.cache != nil {
		e.populateCache(t.key, resp)
	}
	e.finish(t, resp, nil)
}

// labelClamped stamps the degraded-accuracy contract onto a response whose
// execution ran under clamped budgets: a reduced walk count (reported by the
// core through Stats.WalkBudgetClamped) and/or a bounded sweep.  Parallelism
// caps are deliberately not labeled — they never change results.
func (e *Engine) labelClamped(out *Response, res *core.Result, pol TierPolicy, sweepClampedK int) {
	if res == nil || (!res.Stats.WalkBudgetClamped && sweepClampedK == 0) {
		return
	}
	out.Degraded = DegradedClamped
	out.Effective = EffectiveOptions{
		WalkScale: 1,
		SweepK:    sweepClampedK,
	}
	if res.Stats.WalkBudgetClamped {
		out.Effective.WalkScale = pol.WalkScale
		out.Effective.WalkBudget = res.Stats.RandomWalks
		out.Effective.WalkBudgetPlanned = res.Stats.WalkBudgetPlanned
	}
	e.metrics.DegradedClampedServed.Add(1)
}

// populateCache stores one freshly computed response, unless a newer graph
// epoch was published while it executed.  The epoch check and the set happen
// under the engine lock — the same lock ApplyUpdates holds across {publish +
// invalidate} — so a result computed against a superseded epoch can never slip
// into the cache after the invalidation scan that would have dropped it.  On a
// static graph (dyn == nil) there is nothing to race with and the set is
// unguarded.
//
// Degraded responses never populate the cache: a clamped result under the
// normal key would keep serving reduced accuracy long after the pressure
// passed.
func (e *Engine) populateCache(key string, resp *Response) {
	if resp.Degraded != "" {
		return
	}
	cost := responseCost(key, resp)
	if e.dyn == nil {
		e.cache.set(key, resp, cost)
		return
	}
	e.mu.Lock()
	if resp.Epoch != e.dyn.Epoch() {
		e.metrics.CacheInvalidatedStale.Add(1)
	} else {
		e.cache.set(key, resp, cost)
	}
	e.mu.Unlock()
}

// chooseParallelism resolves the parallelism hint for one query: the
// request's own pin wins; otherwise an adaptive engine derives it from the
// current load (free CPU tokens spread over the queued queries, wide when
// idle, serial when saturated) and a static engine falls back to the
// configured default.  A return of 0 means "inherit the estimator default".
func (e *Engine) chooseParallelism(pinned int) int {
	if pinned != 0 {
		return pinned
	}
	if e.cfg.Adaptive {
		return e.adaptiveP(e.cpu.freeTokens(), len(e.queue))
	}
	if e.cfg.Parallelism > 1 {
		return e.cfg.Parallelism
	}
	return 0
}

// adaptiveP folds one queue-depth observation into the EWMA and returns the
// adaptive parallelism choice P = 1 + free/(smoothedDepth+1), capped by the
// configured ceiling.  With AdaptiveEWMA = 1 (the default) the smoothed
// depth equals the instantaneous one and the formula reduces exactly to the
// historical integer arithmetic.
func (e *Engine) adaptiveP(free, depth int) int {
	sm := e.observeQueueDepth(depth)
	p := 1 + int(float64(free)/(sm+1))
	if max := e.cfg.Parallelism; max >= 1 && p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// observeQueueDepth updates the smoothed queue depth with one observation
// and returns the new value.  Lock-free: concurrent workers CAS-loop on the
// float bits.
func (e *Engine) observeQueueDepth(depth int) float64 {
	alpha := e.cfg.AdaptiveEWMA
	for {
		oldBits := e.queueEWMA.Load()
		sm := alpha*float64(depth) + (1-alpha)*math.Float64frombits(oldBits)
		if e.queueEWMA.CompareAndSwap(oldBits, math.Float64bits(sm)) {
			return sm
		}
	}
}

// smoothedQueueDepth reports the current EWMA of the admission-queue depth
// without folding in a new observation (for stats and metrics).
func (e *Engine) smoothedQueueDepth() float64 {
	return math.Float64frombits(e.queueEWMA.Load())
}

// execute dispatches to the estimator with the task's cancellation context,
// the engine's CPU-token gate and a pooled workspace, and reports the
// parallelism it resolved for the query (surfaced in Response, /stats and
// the Prometheus gauges) plus the epoch snapshot the execution was pinned to
// (the sweep and the response epoch stamp must see the same view).
func (e *Engine) execute(t *task, pol TierPolicy) (*core.Result, int, *graph.Snapshot, error) {
	// Check out a workspace for the execution.  The estimator joins all of
	// its walk-shard goroutines before returning — on success, error and
	// cancellation alike — so the deferred return can never recycle slabs a
	// stale goroutine still touches.
	wsStart := time.Now()
	ws := e.workspaces.Get().(*core.Workspace)
	wsD := time.Since(wsStart)
	e.metrics.observeStage(trace.StageWorkspace, wsD)
	t.qt.Observe(trace.StageWorkspace, wsStart, wsD)
	e.wsOut.Add(1)
	defer func() {
		e.wsOut.Add(-1)
		e.workspaces.Put(ws)
	}()
	// The audit is always attached: the inline invariant checks are cheap
	// (one extra pass over the touched entries) and their counters feed the
	// hkpr_serve_invariant_* metrics on every execution.  The snapshot pin
	// fixes the whole execution — estimation, sweep, epoch stamp — to one
	// published epoch, so a concurrent ApplyUpdates never tears a query.
	snap := e.src.Snapshot()
	oc := core.OptionsContext{
		Ctx:        t.ctx,
		CheckEvery: e.cfg.CancelCheckEvery,
		CPU:        e.cpu,
		Workspace:  ws,
		Trace:      t.qt,
		Audit:      &t.audit,
		Snapshot:   snap,
		WalkScale:  pol.WalkScale,
	}
	opts := t.req.Opts
	opts.Parallelism = e.clampParallelism(e.chooseParallelism(opts.Parallelism), pol)
	chosen := opts.Parallelism
	if chosen == 0 {
		chosen = e.est.Options().Parallelism
	}
	if chosen < 1 {
		chosen = 1
	}
	e.metrics.LastParallelism.Store(int64(chosen))
	var res *core.Result
	var err error
	switch t.req.Method {
	case MethodTEA:
		res, err = e.est.TEAContext(oc, t.req.Seed, opts)
	case MethodMonteCarlo:
		res, err = e.est.MonteCarloContext(oc, t.req.Seed, opts)
	default:
		res, err = e.est.TEAPlusContext(oc, t.req.Seed, opts)
	}
	return res, chosen, snap, err
}

// clampParallelism applies the tier policy's parallelism cap to the resolved
// choice.  0 (inherit the estimator default) is also capped, since the
// default may exceed the cap.  Parallelism never changes results, so this is
// not a labeled degradation.
func (e *Engine) clampParallelism(p int, pol TierPolicy) int {
	if max := pol.MaxParallelism; max > 0 && (p == 0 || p > max) {
		return max
	}
	return p
}

// finish records the outcome, retires the task from the flight table (after
// any cache population, so there is no window where neither serves the key)
// and wakes every waiter.  Every admitted task passes through finish exactly
// once, which is what keeps the pending count (Drain's signal) and the error
// taxonomy exact.
func (e *Engine) finish(t *task, resp *Response, err error) {
	// An abandoning caller races its cancel against the task's deadline
	// timer; if the deadline has in fact passed, "timeout" is the truthful
	// classification regardless of which fired first.
	if errors.Is(err, context.Canceled) {
		if dl, ok := t.ctx.Deadline(); ok && !time.Now().Before(dl) {
			err = context.DeadlineExceeded
		}
	}
	t.resp, t.err = resp, err
	e.mu.Lock()
	if e.flight[t.key] == t {
		delete(e.flight, t.key)
	}
	e.mu.Unlock()
	// Count before waking the waiters, so a caller that observed completion
	// also observes its outcome in the metrics.
	e.metrics.Completed.Add(1)
	e.pending.Add(-1)
	if err != nil {
		e.metrics.countError(err)
	}
	close(t.done)
}

// normalizeMethod validates a request method, resolving "" to TEA+.
func normalizeMethod(m string) (string, error) {
	switch m {
	case "", MethodTEAPlus:
		return MethodTEAPlus, nil
	case MethodTEA, MethodMonteCarlo:
		return m, nil
	default:
		return "", fmt.Errorf("%w: must be %q, %q or %q, got %q",
			ErrUnknownMethod, MethodTEAPlus, MethodTEA, MethodMonteCarlo, m)
	}
}

// cacheKey derives the cache/coalescing identity of a query from its resolved
// parameters.  Two requests with the same key are guaranteed to produce the
// same Response (the estimators are deterministic in these inputs).
// Options.Parallelism is deliberately excluded: the sharded walk stage makes
// results bit-identical at any parallelism, so differing parallelism hints
// must share one cache entry.
func cacheKey(method string, seed graph.NodeID, sweep bool, o core.Options) string {
	b := make([]byte, 0, 128)
	b = append(b, method...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(seed), 10)
	b = append(b, '|')
	if sweep {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	for _, f := range [...]float64{o.T, o.EpsRel, o.Delta, o.FailureProb, o.C, o.RmaxScale} {
		b = append(b, '|')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	b = append(b, '|')
	b = strconv.AppendUint(b, o.Seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.MaxPushHops), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.WalkLengthCap), 10)
	return string(b)
}

// render fills the per-caller rendering knobs — TopK into out.Top, SweepK
// into out.Sweep — on the caller's private Response copy: the shared cached
// Response never carries a Top or a bounded sweep, so coalesced callers and
// cache hits can each request a different rendering without touching the
// shared vector.  It returns the render span for trace attachment (zero when
// nothing was rendered).
func (e *Engine) render(out *Response, req Request) (time.Time, time.Duration) {
	if out.Result == nil || (req.TopK <= 0 && req.SweepK <= 0) {
		return time.Time{}, 0
	}
	// Rendering reads the current snapshot (an atomic load): cache hits and
	// coalesced callers render against degrees at serve time, which scoped
	// invalidation keeps consistent with the cached vector — entries near an
	// update were already dropped.
	g := e.src.Snapshot()
	start := time.Now()
	if req.TopK > 0 {
		out.Top = cluster.TopKNormalized(g, out.Result.Scores, req.TopK)
	}
	if req.SweepK > 0 && out.Sweep == nil {
		// A bounded sweep only renders when the full sweep isn't already part
		// of the shared result.
		sw := cluster.SweepK(g, out.Result.Scores, req.SweepK)
		out.Sweep = &sw
	}
	d := time.Since(start)
	e.metrics.observeStage(trace.StageRender, d)
	return start, d
}

// TraceRecords returns the most recently completed query traces, newest
// first.  It returns nil when the trace ring is disabled
// (Config.TraceBuffer <= 0).  The records are immutable and shared with the
// ring; treat them as read-only.
func (e *Engine) TraceRecords() []*trace.Record {
	if e.ring == nil {
		return nil
	}
	return e.ring.snapshot()
}

// Exact per-object footprints used by the cache's byte accounting.  With the
// flat score-vector representation every cached slice is accounted at
// unsafe.Sizeof-derived precision rather than the heuristic map-overhead
// factor the map era used.
const (
	responseStructBytes = int64(unsafe.Sizeof(Response{}))
	resultStructBytes   = int64(unsafe.Sizeof(core.Result{}))
	sweepStructBytes    = int64(unsafe.Sizeof(cluster.SweepResult{}))
	nodeIDBytes         = int64(unsafe.Sizeof(graph.NodeID(0)))
	float64Bytes        = int64(unsafe.Sizeof(float64(0)))
)

// responseCost returns the exact bytes a cached response pins: the Response,
// Result and SweepResult structs (whose sizes already include their slices'
// headers), the flat score vector's 16 bytes per entry, the sweep slices'
// backing arrays, and the cache key.  serve's cache tests assert that the
// cache's SizeBytes equals the sum of these footprints, so keep this in sync
// with what set() actually stores.
func responseCost(key string, r *Response) int64 {
	c := responseStructBytes + int64(len(key))
	if r.Result != nil {
		c += resultStructBytes + int64(len(r.Result.Scores))*core.ScoredNodeBytes
	}
	if r.Sweep != nil {
		c += sweepStructBytes
		c += int64(len(r.Sweep.Cluster)+len(r.Sweep.Order)) * nodeIDBytes
		c += int64(len(r.Sweep.Profile)) * float64Bytes
	}
	return c
}
