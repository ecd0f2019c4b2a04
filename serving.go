package hkpr

import (
	"context"
	"fmt"
	"io"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/serve"
	"hkpr/internal/trace"
)

// Serving-layer re-exports.  The concrete implementations live in
// internal/serve; the aliases make the types nameable by callers.
type (
	// EngineConfig tunes an Engine: worker count, admission-queue depth,
	// result-cache byte budget, default per-query timeout, the cancellation
	// check interval, the per-query walk-shard parallelism (static default
	// or load-adaptive via Adaptive; the push is serial), and the shared
	// CPU-token budget that keeps workers plus walk shards from
	// oversubscribing cores.
	EngineConfig = serve.Config
	// ServeRequest is a raw serving-layer query (seed, method, per-query
	// option overrides, sweep and cache directives).
	ServeRequest = serve.Request
	// ServeResponse is a raw serving-layer answer.  Its Result and Sweep may
	// be shared with the engine's cache and must be treated as read-only.
	ServeResponse = serve.Response
	// TraceRecord is one completed query's immutable per-stage trace: stage
	// spans (queue wait, cache lookup, workspace, push, plan, walk, merge,
	// audit, sweep, render), the resolved parallelism, the cache outcome, the estimator's
	// execution statistics and the query's invariant-check counters.  Records
	// are returned by Engine.Traces and on ServeResponse.Trace when a request
	// sets Trace; they marshal directly to JSON.
	TraceRecord = trace.Record
	// UpdateResult summarizes one update batch published through
	// Engine.ApplyUpdates: the new epoch, the accepted batch size, the
	// invalidation neighborhood and the number of cache entries dropped.
	UpdateResult = serve.UpdateResult
	// PressureConfig tunes the engine's overload controller: tier thresholds
	// on smoothed queue occupancy and shed rate, per-tier degradation
	// policies, the stale-arena fraction of the cache budget and the
	// Retry-After clamp.  Its zero value enables the controller with
	// production defaults; set Disabled to opt out entirely.
	PressureConfig = serve.PressureConfig
	// TierPolicy is one pressure tier's degradation policy: a walk-budget
	// scale, parallelism and sweep-k caps, and whether radius-invalidated
	// stale results may be served while revalidating.
	TierPolicy = serve.TierPolicy
	// PressureLevel is the controller's current tier (nominal, elevated,
	// overloaded, critical).
	PressureLevel = serve.PressureLevel
	// EffectiveOptions echoes the reduced budgets a degraded (clamped)
	// response was actually computed with.
	EffectiveOptions = serve.EffectiveOptions
	// OverloadedError is the shed error carrying a Retry-After hint derived
	// from the engine's drain estimate; errors.Is(err, ErrOverloaded) still
	// matches it.
	OverloadedError = serve.OverloadedError
)

// Degraded-response labels: a ServeResponse whose Degraded field is non-empty
// was served in a reduced mode under overload pressure.
const (
	// DegradedStale marks a response served from the stale arena (a
	// radius-invalidated cached result, at its pre-update Epoch) while a
	// background revalidation recomputes.
	DegradedStale = serve.DegradedStale
	// DegradedClamped marks a response computed under a pressure tier's
	// reduced walk/sweep budgets; Effective echoes the budgets used.
	DegradedClamped = serve.DegradedClamped
)

// Serving-layer errors.
var (
	// ErrOverloaded reports that the engine's admission queue was full and
	// the query was shed; callers should back off and retry.
	ErrOverloaded = serve.ErrOverloaded
	// ErrEngineClosed reports a query issued against a closed Engine.
	ErrEngineClosed = serve.ErrClosed
	// ErrUnknownMethod reports a serving request whose method is not one of
	// tea+, tea or monte-carlo.
	ErrUnknownMethod = serve.ErrUnknownMethod
	// ErrStaticGraph reports an ApplyUpdates call on an engine built over a
	// plain immutable graph rather than a Dynamic.
	ErrStaticGraph = serve.ErrStaticGraph
	// ErrInvariantViolation reports that a query's inline self-verification
	// (mass conservation, score non-negativity, total-mass bounds, the
	// paper's Inequality 11) failed.  Queries only fail with it when
	// EngineConfig.StrictInvariants is set; otherwise violations are counted
	// in the serving metrics without affecting results.
	ErrInvariantViolation = core.ErrInvariantViolation
)

// RetryAfterSeconds converts a drain estimate (OverloadedError.RetryAfter)
// into the whole-seconds value an HTTP Retry-After header carries: rounded up
// and floored at 1 second, so a light-load estimate of a few milliseconds
// never renders as "Retry-After: 0" (which clients read as "retry now").
func RetryAfterSeconds(d time.Duration) int64 { return serve.RetryAfterSeconds(d) }

// Engine is the concurrent query-serving subsystem: a worker-pool scheduler
// with bounded admission, a byte-budgeted LRU result cache with request
// coalescing, per-query cancellation threaded into the core estimators, and
// a metrics core.  Create one per loaded graph with NewEngine; it amortizes
// the same per-graph state as a Clusterer and is safe for concurrent use by
// any number of goroutines.
type Engine struct {
	eng *serve.Engine
}

// NewEngine builds a serving engine over src: a *Graph for a static
// deployment, or a *Dynamic (see NewDynamic) to enable the live-update path
// through Engine.ApplyUpdates.  Options.Delta defaults to 1/N() if zero, as
// in NewClusterer; cfg's zero value gives GOMAXPROCS workers, a 4×-deep
// admission queue and a 64 MiB result cache.
func NewEngine(src GraphSource, opts Options, cfg EngineConfig) (*Engine, error) {
	if opts.Delta == 0 {
		if n := src.Snapshot().N(); n > 1 {
			opts.Delta = 1 / float64(n)
		} else {
			return nil, fmt.Errorf("hkpr: graph too small for local clustering")
		}
	}
	est, err := core.NewEstimator(src, opts)
	if err != nil {
		return nil, err
	}
	eng, err := serve.New(est, cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// Graph returns the current epoch's immutable snapshot of the graph the
// engine serves.  The view is safe to read concurrently with live updates;
// call again after ApplyUpdates to observe the new epoch.
func (e *Engine) Graph() *GraphSnapshot { return e.eng.Graph() }

// ApplyUpdates validates and publishes one graph update batch as a new epoch
// and invalidates exactly the cached results whose seed lies within
// EngineConfig.InvalidateRadius hops of an updated edge.  The batch is
// all-or-nothing; engines built over a static *Graph fail with
// ErrStaticGraph.  In-flight queries keep reading the epoch they pinned at
// admission and are never torn.
func (e *Engine) ApplyUpdates(batch UpdateBatch) (UpdateResult, error) {
	return e.eng.ApplyUpdates(batch)
}

// Options returns the engine's resolved default estimation options.
func (e *Engine) Options() Options { return e.eng.Options() }

// Close stops the workers, aborts in-flight queries and fails queued ones
// with ErrEngineClosed.  It is idempotent.
func (e *Engine) Close() error { return e.eng.Close() }

// Drain stops admission (new queries fail with ErrEngineClosed) but lets
// every already-admitted query finish, waiting up to timeout before forcing
// Close.  A nil return means no admitted query was abandoned mid-execution.
func (e *Engine) Drain(timeout time.Duration) error { return e.eng.Drain(timeout) }

// Pressure returns the overload controller's current tier.
func (e *Engine) Pressure() PressureLevel { return e.eng.PressureLevel() }

// Do issues a raw serving-layer request.  It blocks until the query
// completes, is shed (ErrOverloaded), or ctx is done.
func (e *Engine) Do(ctx context.Context, req ServeRequest) (*ServeResponse, error) {
	return e.eng.Do(ctx, req)
}

// LocalCluster answers one local clustering query (TEA+ then sweep) through
// the scheduler and cache.
func (e *Engine) LocalCluster(ctx context.Context, seed NodeID) (*LocalCluster, error) {
	return e.LocalClusterWithOptions(ctx, seed, Options{}, MethodTEAPlus)
}

// LocalClusterWithOptions is LocalCluster with per-query option overrides and
// an explicit method (tea+, tea or monte-carlo).
func (e *Engine) LocalClusterWithOptions(ctx context.Context, seed NodeID, query Options, method Method) (*LocalCluster, error) {
	resp, err := e.Do(ctx, ServeRequest{Seed: seed, Method: string(method), Opts: query, Sweep: true})
	if err != nil {
		return nil, err
	}
	return localClusterFromResponse(resp), nil
}

// Estimate computes the approximate HKPR vector for seed through the
// scheduler and cache, without the sweep.  The returned Result may be shared
// with the cache; treat it as read-only.
func (e *Engine) Estimate(ctx context.Context, seed NodeID, method Method, query Options) (*Result, error) {
	resp, err := e.Do(ctx, ServeRequest{Seed: seed, Method: string(method), Opts: query})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Stats snapshots the engine's serving metrics.
func (e *Engine) Stats() ServeStats { return e.eng.Snapshot() }

// Traces returns the most recently completed query traces, newest first, or
// nil when EngineConfig.TraceBuffer left the trace ring disabled.  The
// records are immutable and safe to retain.
func (e *Engine) Traces() []*TraceRecord { return e.eng.TraceRecords() }

// WriteMetrics writes the serving metrics in Prometheus text format.
func (e *Engine) WriteMetrics(w io.Writer) { e.eng.WritePrometheus(w) }

// localClusterFromResponse adapts a serving-layer response (which always
// carries a sweep here) to the public LocalCluster shape.
func localClusterFromResponse(resp *ServeResponse) *LocalCluster {
	return &LocalCluster{
		Seed:        resp.Seed,
		Cluster:     resp.Sweep.Cluster,
		Conductance: resp.Sweep.Conductance,
		HKPR:        resp.Result,
		Sweep:       *resp.Sweep,
	}
}
