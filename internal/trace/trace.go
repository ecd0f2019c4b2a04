// Package trace provides the per-query execution tracing primitives shared by
// the core estimator pipeline and the serving layer: a pooled QueryTrace that
// records per-stage spans while a query executes, and an immutable Record
// snapshot suitable for ring buffers, slow-query logs and JSON debug
// endpoints.
//
// The package is a leaf: internal/core attaches a *QueryTrace to its
// execution controls and internal/serve owns the trace lifecycle, so trace
// must not import either.  Estimator statistics therefore travel in
// Record.Stats as an opaque value.
//
// Tracing is strictly opt-in and allocation-free when disabled: every
// QueryTrace method is safe on a nil receiver, so instrumented code calls
// Observe unconditionally and a disabled query pays one nil check per stage.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Stage identifies one phase of a served query's lifecycle, in pipeline
// order.  The serving layer's per-stage latency histograms are indexed by
// Stage, so the set (and its order) is shared between traces and metrics.
type Stage uint8

const (
	// StageQueueWait is the time between admission and execution start.
	StageQueueWait Stage = iota
	// StageCacheLookup is the result-cache probe.
	StageCacheLookup
	// StageWorkspace is the pooled-workspace checkout.
	StageWorkspace
	// StagePush is the estimator's HK-Push / HK-Push+ phase.
	StagePush
	// StageWalk is the sharded Monte-Carlo walk phase.
	StageWalk
	// StageMerge is the deterministic walk merge plus the materialization of
	// the flat score vector.
	StageMerge
	// StageSweep is the sweep cut over the finished vector.
	StageSweep
	// StageRender is per-caller rendering (top-k selection, bounded sweep).
	StageRender
	// StageUpdate is the application and publication of one graph update
	// batch (epoch build plus atomic store).
	StageUpdate
	// StageInvalidate is the scoped cache invalidation after an update: the
	// affected-neighborhood BFS plus the cache scan.
	StageInvalidate
	// StagePlan is the estimator's work between push and walks: TEA+'s
	// Inequality-11 decision and residue reduction, walk-entry collection
	// and the alias-table rebuild.
	StagePlan
	// StageAudit is the estimator's invariant audits (mass conservation,
	// the Inequality-11 recheck, the result audit), summed into one span.
	StageAudit
	// NumStages is the number of stages; valid stages are < NumStages.
	// Stages added after the query stages keep existing stage indices (and
	// their histogram positions) stable.
	NumStages
)

var stageNames = [NumStages]string{
	"queue_wait",
	"cache_lookup",
	"workspace",
	"push",
	"walk",
	"merge",
	"sweep",
	"render",
	"update_apply",
	"cache_invalidate",
	"plan",
	"audit",
}

// String returns the snake_case stage name used in metric labels and trace
// records.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Cache outcomes recorded on a trace.
const (
	// OutcomeHit: the query was answered from the result cache.
	OutcomeHit = "hit"
	// OutcomeMiss: the cache was probed and missed; the query executed.
	OutcomeMiss = "miss"
	// OutcomeUncached: the request bypassed the cache (NoCache).
	OutcomeUncached = "uncached"
)

// Span is one stage's timing: its start as an offset from the trace's begin
// time, and its duration.
type Span struct {
	Start    time.Duration
	Duration time.Duration
}

// QueryTrace accumulates the per-stage spans of one query while it executes.
// It is pooled (Get/Put) so steady-state tracing performs no allocation
// beyond the final Record, and every method is nil-receiver-safe so
// instrumented code never branches on whether tracing is enabled.
//
// A QueryTrace is not safe for concurrent use; the estimator pipeline and the
// serving worker observe stages strictly sequentially.
type QueryTrace struct {
	begin time.Time
	seen  [NumStages]bool
	spans [NumStages]Span

	// Metadata filled in by the owner (the serving layer) before Finish.
	Seed         int64
	Method       string
	CacheOutcome string
	Parallelism  int
	// Batch is the number of sources sharing this query's core execution
	// (the serving layer's batching window); 0 marks an unbatched execution.
	Batch int
	// Stats is the estimator's cost breakdown (a core.Stats value); typed
	// loosely because trace is a leaf package.
	Stats any
}

var pool = sync.Pool{New: func() any { return new(QueryTrace) }}

// Get checks a reset QueryTrace out of the pool, anchored at begin: all span
// offsets are relative to it.
func Get(begin time.Time) *QueryTrace {
	t := pool.Get().(*QueryTrace)
	*t = QueryTrace{begin: begin}
	return t
}

// Put returns t to the pool.  Safe on nil.
func Put(t *QueryTrace) {
	if t != nil {
		pool.Put(t)
	}
}

// Begin returns the trace's anchor time (zero on a nil trace).
func (t *QueryTrace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.begin
}

// Observe records one stage's span.  Observing the same stage again
// overwrites it (stages run at most once per query).  Safe on nil.
func (t *QueryTrace) Observe(s Stage, start time.Time, d time.Duration) {
	if t == nil || s >= NumStages {
		return
	}
	t.seen[s] = true
	t.spans[s] = Span{Start: start.Sub(t.begin), Duration: d}
}

// Finish freezes the trace into an immutable Record ending at end.  Metadata
// fields (Seed, Method, …) are copied; stages appear in pipeline order.  The
// caller normally returns t to the pool with Put afterwards.
func (t *QueryTrace) Finish(end time.Time, errMsg string) *Record {
	rec := &Record{
		Start:        t.begin,
		Seed:         t.Seed,
		Method:       t.Method,
		CacheOutcome: t.CacheOutcome,
		Parallelism:  t.Parallelism,
		Batch:        t.Batch,
		TotalNS:      end.Sub(t.begin).Nanoseconds(),
		Error:        errMsg,
		Stats:        t.Stats,
	}
	n := 0
	for s := Stage(0); s < NumStages; s++ {
		if t.seen[s] {
			n++
		}
	}
	rec.Stages = make([]StageSpan, 0, n)
	for s := Stage(0); s < NumStages; s++ {
		if !t.seen[s] {
			continue
		}
		rec.Stages = append(rec.Stages, StageSpan{
			Stage:      s.String(),
			StartNS:    t.spans[s].Start.Nanoseconds(),
			DurationNS: t.spans[s].Duration.Nanoseconds(),
		})
	}
	return rec
}

// StageSpan is one stage of a finished trace.  Durations are exact
// nanoseconds so consumers can compare them to the estimator's own Stats
// timings without rounding.
type StageSpan struct {
	Stage      string `json:"stage"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
}

// Record is the immutable snapshot of one completed query's trace, the unit
// stored in the serving layer's trace ring and returned by its debug
// endpoint.  Records are shared (ring, coalesced callers, responses) and must
// never be mutated; use WithStage to derive an extended copy.
type Record struct {
	// Start is the wall-clock anchor; stage offsets are relative to it.
	Start time.Time `json:"start"`
	// Seed and Method echo the query.
	Seed   int64  `json:"seed"`
	Method string `json:"method,omitempty"`
	// CacheOutcome is one of OutcomeHit, OutcomeMiss, OutcomeUncached.
	CacheOutcome string `json:"cache,omitempty"`
	// Parallelism is the per-query parallelism the engine resolved.
	Parallelism int `json:"parallelism,omitempty"`
	// Batch is the number of sources that shared this query's core execution
	// through the serving layer's batching window; 0 means unbatched.
	Batch int `json:"batch,omitempty"`
	// TotalNS is the end-to-end duration from Start to completion.
	TotalNS int64 `json:"total_ns"`
	// Error is the failure, empty on success.
	Error string `json:"error,omitempty"`
	// Stages holds the observed spans in pipeline order.
	Stages []StageSpan `json:"stages"`
	// Stats is the estimator's full cost breakdown (core.Stats), when the
	// query executed.
	Stats any `json:"stats,omitempty"`
	// InvariantChecks and InvariantViolations summarize the query's
	// self-verification counters.
	InvariantChecks     int64 `json:"invariant_checks,omitempty"`
	InvariantViolations int64 `json:"invariant_violations,omitempty"`
}

// StageDuration returns the duration of the named stage and whether it was
// observed.
func (r *Record) StageDuration(name string) (time.Duration, bool) {
	for _, s := range r.Stages {
		if s.Stage == name {
			return time.Duration(s.DurationNS), true
		}
	}
	return 0, false
}

// WithStage returns a copy of r extended with one more stage span (the
// original is shared and must stay immutable).  Used for per-caller stages —
// rendering happens after the shared execution record is frozen.
func (r *Record) WithStage(stage Stage, start time.Time, d time.Duration) *Record {
	cp := *r
	cp.Stages = make([]StageSpan, len(r.Stages), len(r.Stages)+1)
	copy(cp.Stages, r.Stages)
	cp.Stages = append(cp.Stages, StageSpan{
		Stage:      stage.String(),
		StartNS:    start.Sub(r.Start).Nanoseconds(),
		DurationNS: d.Nanoseconds(),
	})
	return &cp
}

// StageSummary renders the spans as a compact "push=1.2ms walk=3.4ms" string
// for the slow-query log.
func (r *Record) StageSummary() string {
	var sb strings.Builder
	for i, s := range r.Stages {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", s.Stage, time.Duration(s.DurationNS).Round(time.Microsecond))
	}
	return sb.String()
}
