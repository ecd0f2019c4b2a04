package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/trace"
)

// errorReason buckets every failed query into the unified error taxonomy
// exported as hkpr_serve_errors_total{reason=...}.  Each failure maps to
// exactly one reason, so the labeled series sum to the total failure count.
type errorReason int

const (
	reasonOverloaded errorReason = iota // shed by admission control
	reasonTimeout                       // context deadline exceeded
	reasonCanceled                      // context canceled
	reasonClosed                        // engine closed / draining
	reasonInvariant                     // strict-mode invariant violation
	reasonOther                         // anything else (estimator errors)
	numErrorReasons
)

func (r errorReason) String() string {
	switch r {
	case reasonOverloaded:
		return "overloaded"
	case reasonTimeout:
		return "timeout"
	case reasonCanceled:
		return "canceled"
	case reasonClosed:
		return "closed"
	case reasonInvariant:
		return "invariant"
	default:
		return "other"
	}
}

// classifyError maps a failure to its taxonomy bucket.  Order matters only
// where sentinels can wrap each other, which they do not today.
func classifyError(err error) errorReason {
	switch {
	case errors.Is(err, ErrOverloaded):
		return reasonOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return reasonTimeout
	case errors.Is(err, context.Canceled):
		return reasonCanceled
	case errors.Is(err, ErrClosed):
		return reasonClosed
	case errors.Is(err, core.ErrInvariantViolation):
		return reasonInvariant
	default:
		return reasonOther
	}
}

// numLatencyBuckets spans 1µs..2^25µs (~33.5s) in power-of-two buckets, plus
// a final overflow bucket.
const numLatencyBuckets = 27

// histogram is a fixed-bucket, power-of-two-microsecond latency histogram.
// All updates are atomic and allocation-free, so per-stage observation can
// stay on the query hot path; reads (quantiles, Prometheus emission) take no
// locks and tolerate racing writers.
type histogram struct {
	buckets [numLatencyBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	for b < numLatencyBuckets-1 && us > int64(1)<<b {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
}

// latencyBucketUpperUS returns bucket b's inclusive upper bound in
// microseconds, or -1 for the overflow bucket.
func latencyBucketUpperUS(b int) int64 {
	if b >= numLatencyBuckets-1 {
		return -1
	}
	return int64(1) << b
}

// quantileMS extracts an approximate quantile (0..1) from the cumulative
// histogram, reported as the matching bucket's upper bound in milliseconds.
func (h *histogram) quantileMS(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := 0; b < numLatencyBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= rank {
			upper := latencyBucketUpperUS(b)
			if upper < 0 {
				upper = int64(1) << (numLatencyBuckets - 2)
			}
			return float64(upper) / 1e3
		}
	}
	return 0
}

// writeProm emits the histogram's sample series (bucket/sum/count) for the
// fully qualified metric name; labels, when non-empty, is a label list
// (`stage="push"`) merged into every series (the le label stays last).  The
// caller writes the HELP/TYPE header — shared across labeled series of one
// family — itself.
func (h *histogram) writeProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for b := 0; b < numLatencyBuckets; b++ {
		cum += h.buckets[b].Load()
		if upper := latencyBucketUpperUS(b); upper >= 0 {
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, float64(upper)/1e6, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	// _count is derived from the bucket reads, not the separate count atomic:
	// under concurrent observes the two can diverge transiently, and the
	// exposition must stay internally consistent (+Inf bucket == count) for
	// every snapshot.
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sum.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
	}
}

// numBatchSizeBuckets spans batch sizes 1..64 in power-of-two buckets plus an
// overflow bucket.
const numBatchSizeBuckets = 8

// batchSizeHistogram buckets batched-execution sizes by powers of two.
type batchSizeHistogram struct {
	buckets [numBatchSizeBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// observe records one batched execution of k sources.
func (h *batchSizeHistogram) observe(k int) {
	b := 0
	for b < numBatchSizeBuckets-1 && k > 1<<b {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(k))
}

// writeProm emits the batch-size histogram's sample series.
func (h *batchSizeHistogram) writeProm(w io.Writer, name string) {
	var cum int64
	for b := 0; b < numBatchSizeBuckets; b++ {
		cum += h.buckets[b].Load()
		if b < numBatchSizeBuckets-1 {
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, 1<<b, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.sum.Load())
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// Metrics is the engine's counter core.  All fields are updated atomically;
// read them through Engine.Snapshot (or directly in tests).
type Metrics struct {
	// Requests counts every Do call, however it was answered.
	Requests atomic.Int64
	// Executions counts queries that actually ran a core estimator.
	Executions atomic.Int64
	// Completed counts tasks that finished (successfully or not).
	Completed atomic.Int64
	// Errors counts executions that failed for reasons other than
	// cancellation.
	Errors atomic.Int64
	// Canceled counts executions aborted by context cancellation or deadline
	// (including tasks canceled while still queued).
	Canceled atomic.Int64
	// CacheHits / CacheMisses count result-cache lookups.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Coalesced counts callers that shared another in-flight execution.
	Coalesced atomic.Int64
	// Shed counts queries rejected because the admission queue was full.
	Shed atomic.Int64
	// Abandoned counts callers whose context ended before their query did.
	Abandoned atomic.Int64
	// InFlight is the number of queries currently executing.
	InFlight atomic.Int64
	// LastParallelism is the parallelism resolved for the most recently
	// started execution (the request's pin, the adaptive choice, or the
	// engine default); it is how adaptive engines expose their current
	// width choice.
	LastParallelism atomic.Int64
	// InvariantChecks counts the inline invariant evaluations the estimators
	// performed while serving queries; InvariantViolations counts failures
	// per core.InvariantKind.  On a healthy engine checks advance with every
	// execution and every violation counter stays 0.
	InvariantChecks     atomic.Int64
	InvariantViolations [core.NumInvariantKinds]atomic.Int64

	// ErrorsByReason splits every failed query by taxonomy reason (see
	// errorReason); the buckets sum to all failures the engine returned,
	// including queries shed at admission and rejected after Close.
	ErrorsByReason [numErrorReasons]atomic.Int64

	// CachePeeks counts peer cache probes answered through Engine.Peek (the
	// router tier's second-level cache-fill path); WarmFills counts peer
	// responses installed through Engine.WarmCache; WarmRejectedStale counts
	// peer fills rejected because they were computed against a superseded
	// graph epoch.  Peeks and fills never touch CacheHits/CacheMisses, so the
	// serving hit rate stays a pure client-traffic signal.
	CachePeeks        atomic.Int64
	WarmFills         atomic.Int64
	WarmRejectedStale atomic.Int64

	// DegradedStaleServed counts responses served from the stale arena under
	// pressure (labeled Degraded == DegradedStale); DegradedClampedServed
	// counts responses computed under a tier's reduced walk/sweep budget
	// (labeled Degraded == DegradedClamped).  Revalidations counts background
	// recomputations started for stale-served entries.
	DegradedStaleServed   atomic.Int64
	DegradedClampedServed atomic.Int64
	Revalidations         atomic.Int64

	// BatchExecutions counts batched core executions (each one shared
	// EstimateMany call); BatchedQueries counts the queries they served, so
	// BatchedQueries/BatchExecutions is the realized mean batch size.  Both
	// stay 0 with the batching window disabled.  batchSize buckets the
	// per-execution sizes.
	BatchExecutions atomic.Int64
	BatchedQueries  atomic.Int64
	batchSize       batchSizeHistogram

	// UpdatesApplied counts graph update batches published through
	// Engine.ApplyUpdates; GraphEpoch mirrors the current epoch.  Both stay 0
	// on engines over a static graph.
	UpdatesApplied atomic.Int64
	GraphEpoch     atomic.Uint64
	// CacheInvalidatedRadius counts cached results dropped because their seed
	// fell inside an update's affected neighborhood; CacheInvalidatedStale
	// counts results discarded at population time because a newer epoch was
	// published while they executed.  Everything outside the radius survives
	// updates, so on a locality-friendly workload the first counter stays far
	// below CacheEntries.
	CacheInvalidatedRadius atomic.Int64
	CacheInvalidatedStale  atomic.Int64

	// latency is the end-to-end execution histogram; stage holds one
	// histogram per pipeline stage (queue wait, cache lookup, workspace
	// checkout, push, walk, merge, sweep, render), always on — stage timings
	// come from measurements the engine and estimators already take.
	latency histogram
	stage   [trace.NumStages]histogram
}

func newMetrics() *Metrics { return &Metrics{} }

// observeLatency records one execution duration in the end-to-end histogram.
func (m *Metrics) observeLatency(d time.Duration) { m.latency.observe(d) }

// observeStage records one stage duration in that stage's histogram.
func (m *Metrics) observeStage(s trace.Stage, d time.Duration) { m.stage[s].observe(d) }

// stageDuration pairs a trace stage with one of core's Stats timings.
type stageDuration struct {
	stage trace.Stage
	d     time.Duration
}

// estimatorStages lists the estimator's five disjoint stage timings.  A zero
// duration means the stage did not run (a Monte-Carlo query has no push) and
// must not pollute that stage's buckets.
func estimatorStages(st *core.Stats) [5]stageDuration {
	return [5]stageDuration{
		{trace.StagePush, st.PushTime},
		{trace.StagePlan, st.PlanTime},
		{trace.StageWalk, st.WalkTime},
		{trace.StageMerge, st.MergeTime},
		{trace.StageAudit, st.AuditTime},
	}
}

// countError folds one failure into the taxonomy.  The caller is responsible
// for calling it exactly once per failed query (finish for admitted tasks,
// the explicit pre-admission return paths in Do for the rest).
func (m *Metrics) countError(err error) {
	m.ErrorsByReason[classifyError(err)].Add(1)
}

// foldAudit adds one query's invariant counters into the engine totals.
func (m *Metrics) foldAudit(a *core.InvariantAudit) {
	m.InvariantChecks.Add(a.Checks)
	for kind, v := range a.Violations {
		if v != 0 {
			m.InvariantViolations[kind].Add(v)
		}
	}
}

// Snapshot is a point-in-time copy of the engine's serving state, shaped for
// JSON status endpoints.
type Snapshot struct {
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	InFlight      int64 `json:"in_flight"`
	Parallelism   int   `json:"parallelism"`
	Adaptive      bool  `json:"adaptive"`
	// LastParallelism is the per-query parallelism chosen for the most
	// recently started execution; under Adaptive it tracks how wide the
	// engine is currently willing to run queries.
	LastParallelism int64 `json:"last_parallelism"`
	// QueueDepthEWMA is the smoothed admission-queue depth the adaptive
	// parallelism formula sees, sampled at adaptive admissions (with
	// Config.AdaptiveEWMA = 1 each sample equals the instantaneous depth at
	// that admission).  On a non-adaptive engine no samples are taken, so the
	// field mirrors the live QueueDepth instead of sticking at a meaningless
	// 0.
	QueueDepthEWMA float64 `json:"queue_depth_ewma"`
	CPUTokens      int     `json:"cpu_tokens"`
	CPUTokensFree  int     `json:"cpu_tokens_free"`
	// WorkspacesInUse is the number of pooled query workspaces currently
	// checked out by executing queries; an idle engine reports 0 (a leak
	// here means a canceled query failed to return its workspace).
	WorkspacesInUse int64 `json:"workspaces_in_use"`

	Requests   int64 `json:"requests"`
	Executions int64 `json:"executions"`
	Completed  int64 `json:"completed"`
	Errors     int64 `json:"errors"`
	Canceled   int64 `json:"canceled"`
	Coalesced  int64 `json:"coalesced"`
	Shed       int64 `json:"shed"`
	Abandoned  int64 `json:"abandoned"`

	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheEntries  int64 `json:"cache_entries"`
	CacheBytes    int64 `json:"cache_bytes"`
	CacheCapacity int64 `json:"cache_capacity"`

	// CachePeeks / WarmFills / WarmRejectedStale describe the peer cache-fill
	// surface (Engine.Peek / Engine.WarmCache): probes answered, peer
	// responses installed, and fills rejected for being computed against a
	// superseded epoch.  All zero outside a router deployment.
	CachePeeks        int64 `json:"cache_peeks"`
	WarmFills         int64 `json:"warm_fills"`
	WarmRejectedStale int64 `json:"warm_rejected_stale"`

	// InvariantChecks totals the inline invariant evaluations across all
	// executions; InvariantViolations maps each kind that has failed at
	// least once to its count (empty on a healthy engine).
	InvariantChecks     int64            `json:"invariant_checks"`
	InvariantViolations map[string]int64 `json:"invariant_violations,omitempty"`

	// BatchExecutions counts batched core executions and BatchedQueries the
	// queries they served; BatchPending is the number of queries currently
	// waiting in the batching window.  All zero when batching is disabled.
	BatchExecutions int64 `json:"batch_executions"`
	BatchedQueries  int64 `json:"batched_queries"`
	BatchPending    int64 `json:"batch_pending"`

	// UpdatesApplied counts published graph update batches and GraphEpoch the
	// current snapshot epoch; the two invalidation counters split dropped cache
	// entries by reason (inside an update's affected neighborhood vs. computed
	// against a superseded epoch).  All zero on a static-graph engine.
	UpdatesApplied         int64  `json:"updates_applied"`
	GraphEpoch             uint64 `json:"graph_epoch"`
	CacheInvalidatedRadius int64  `json:"cache_invalidated_radius"`
	CacheInvalidatedStale  int64  `json:"cache_invalidated_stale"`

	// PressureLevel is the controller's current tier ("nominal", "elevated",
	// "overloaded", "critical", or "disabled" when the controller is off);
	// PressureTransitions counts tier changes since start.
	PressureLevel       string `json:"pressure_level"`
	PressureTransitions int64  `json:"pressure_transitions"`

	// PressureTier is the same tier as a machine-readable ordinal
	// (0=nominal 1=elevated 2=overloaded 3=critical, -1 when the controller
	// is disabled) and DrainEstimateMS the current Retry-After drain estimate
	// in milliseconds — the two fields the router tier's health gossip reads
	// from /stats without parsing label strings.
	PressureTier    int     `json:"pressure_tier"`
	DrainEstimateMS float64 `json:"drain_estimate_ms"`

	// DegradedStaleServed / DegradedClampedServed count degraded responses by
	// kind; Revalidations counts background recomputes of stale-served keys.
	DegradedStaleServed   int64 `json:"degraded_stale_served"`
	DegradedClampedServed int64 `json:"degraded_clamped_served"`
	Revalidations         int64 `json:"revalidations"`

	// StaleEntries / StaleBytes describe the stale arena; StaleCapacity is its
	// byte budget.  The arena's budget is carved out of the configured cache
	// budget, so CacheBytes + StaleBytes <= the configured Config.CacheBytes
	// and CacheCapacity + StaleCapacity == Config.CacheBytes.
	StaleEntries  int64 `json:"stale_entries"`
	StaleBytes    int64 `json:"stale_bytes"`
	StaleCapacity int64 `json:"stale_capacity"`
	// StaleEvicted counts entries dropped from the arena to fit its budget.
	StaleEvicted int64 `json:"stale_evicted"`

	// ErrorsByReason splits failed queries by taxonomy reason; only reasons
	// with a non-zero count appear.
	ErrorsByReason map[string]int64 `json:"errors_by_reason,omitempty"`

	LatencyCount  int64   `json:"latency_count"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
}

// effectiveQueueDepthEWMA is the queue-depth figure surfaced by Snapshot and
// WritePrometheus: the adaptive EWMA when adaptivity maintains one, else the
// live queue depth (a non-adaptive engine never samples the EWMA, which would
// otherwise read 0 forever).
func (e *Engine) effectiveQueueDepthEWMA() float64 {
	if e.cfg.Adaptive {
		return e.smoothedQueueDepth()
	}
	return float64(len(e.queue))
}

// Snapshot captures the current serving state.
func (e *Engine) Snapshot() Snapshot {
	m := e.metrics
	s := Snapshot{
		Workers:                e.cfg.Workers,
		QueueDepth:             len(e.queue),
		QueueCapacity:          e.cfg.QueueDepth,
		InFlight:               m.InFlight.Load(),
		Parallelism:            e.cfg.Parallelism,
		Adaptive:               e.cfg.Adaptive,
		LastParallelism:        m.LastParallelism.Load(),
		QueueDepthEWMA:         e.effectiveQueueDepthEWMA(),
		CPUTokens:              e.cfg.CPUTokens,
		CPUTokensFree:          e.cpu.freeTokens(),
		WorkspacesInUse:        e.wsOut.Load(),
		Requests:               m.Requests.Load(),
		Executions:             m.Executions.Load(),
		Completed:              m.Completed.Load(),
		Errors:                 m.Errors.Load(),
		Canceled:               m.Canceled.Load(),
		Coalesced:              m.Coalesced.Load(),
		Shed:                   m.Shed.Load(),
		Abandoned:              m.Abandoned.Load(),
		CacheHits:              m.CacheHits.Load(),
		CacheMisses:            m.CacheMisses.Load(),
		CachePeeks:             m.CachePeeks.Load(),
		WarmFills:              m.WarmFills.Load(),
		WarmRejectedStale:      m.WarmRejectedStale.Load(),
		InvariantChecks:        m.InvariantChecks.Load(),
		BatchExecutions:        m.BatchExecutions.Load(),
		BatchedQueries:         m.BatchedQueries.Load(),
		UpdatesApplied:         m.UpdatesApplied.Load(),
		GraphEpoch:             m.GraphEpoch.Load(),
		CacheInvalidatedRadius: m.CacheInvalidatedRadius.Load(),
		CacheInvalidatedStale:  m.CacheInvalidatedStale.Load(),
		LatencyCount:           m.latency.count.Load(),
		LatencyP50MS:           m.latency.quantileMS(0.50),
		LatencyP90MS:           m.latency.quantileMS(0.90),
		LatencyP99MS:           m.latency.quantileMS(0.99),
	}
	for kind := core.InvariantKind(0); kind < core.NumInvariantKinds; kind++ {
		if v := m.InvariantViolations[kind].Load(); v != 0 {
			if s.InvariantViolations == nil {
				s.InvariantViolations = make(map[string]int64, int(core.NumInvariantKinds))
			}
			s.InvariantViolations[kind.String()] = v
		}
	}
	if n := s.LatencyCount; n > 0 {
		s.LatencyMeanMS = float64(m.latency.sum.Load()) / float64(n) / 1e6
	}
	if e.cache != nil {
		s.CacheEntries, s.CacheBytes = e.cache.stats()
		s.CacheCapacity = e.cache.capacity
	}
	if e.batch != nil {
		s.BatchPending = e.batch.pending.Load()
	}
	s.DegradedStaleServed = m.DegradedStaleServed.Load()
	s.DegradedClampedServed = m.DegradedClampedServed.Load()
	s.Revalidations = m.Revalidations.Load()
	if e.pressure != nil {
		s.PressureLevel = e.pressure.current().String()
		s.PressureTransitions = e.pressure.transitions.Load()
		s.PressureTier = int(e.pressure.current())
	} else {
		s.PressureLevel = "disabled"
		s.PressureTier = -1
	}
	s.DrainEstimateMS = float64(e.DrainEstimate().Nanoseconds()) / 1e6
	if e.stale != nil {
		s.StaleEntries, s.StaleBytes = e.stale.stats()
		s.StaleCapacity = e.stale.budget
		s.StaleEvicted = e.stale.evicted.Load()
	}
	for r := errorReason(0); r < numErrorReasons; r++ {
		if v := m.ErrorsByReason[r].Load(); v != 0 {
			if s.ErrorsByReason == nil {
				s.ErrorsByReason = make(map[string]int64, int(numErrorReasons))
			}
			s.ErrorsByReason[r.String()] = v
		}
	}
	return s
}

// WritePrometheus emits the serving metrics in the Prometheus text exposition
// format under the hkpr_serve_* namespace.
func (e *Engine) WritePrometheus(w io.Writer) {
	m := e.metrics
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP hkpr_serve_%s %s\n# TYPE hkpr_serve_%s counter\nhkpr_serve_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP hkpr_serve_%s %s\n# TYPE hkpr_serve_%s gauge\nhkpr_serve_%s %d\n",
			name, help, name, name, v)
	}
	counter("requests_total", "Queries submitted to the engine.", m.Requests.Load())
	counter("executions_total", "Queries that ran a core estimator.", m.Executions.Load())
	fmt.Fprintf(w, "# HELP hkpr_serve_errors_total Failed queries by unified taxonomy reason.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_errors_total counter\n")
	for r := errorReason(0); r < numErrorReasons; r++ {
		fmt.Fprintf(w, "hkpr_serve_errors_total{reason=%q} %d\n", r.String(), m.ErrorsByReason[r].Load())
	}
	counter("canceled_total", "Executions aborted by cancellation or deadline.", m.Canceled.Load())
	counter("cache_hits_total", "Result-cache hits.", m.CacheHits.Load())
	counter("cache_misses_total", "Result-cache misses.", m.CacheMisses.Load())
	counter("cache_peeks_total", "Peer cache probes answered without execution (Engine.Peek).", m.CachePeeks.Load())
	counter("warm_fills_total", "Peer-computed responses installed into the cache (Engine.WarmCache).", m.WarmFills.Load())
	counter("warm_rejected_stale_total", "Peer cache fills rejected for a superseded graph epoch.", m.WarmRejectedStale.Load())
	counter("coalesced_total", "Callers that shared an in-flight execution.", m.Coalesced.Load())
	counter("shed_total", "Queries rejected by admission control.", m.Shed.Load())
	counter("abandoned_total", "Callers that left before their query finished.", m.Abandoned.Load())
	counter("invariant_checks_total", "Inline invariant evaluations performed while serving queries.", m.InvariantChecks.Load())
	counter("batch_executions_total", "Batched core executions (shared multi-source estimator calls).", m.BatchExecutions.Load())
	counter("batch_queries_total", "Queries served through batched executions.", m.BatchedQueries.Load())
	counter("updates_applied_total", "Graph update batches published through the engine.", m.UpdatesApplied.Load())
	fmt.Fprintf(w, "# HELP hkpr_serve_degraded_total Degraded responses served, by kind.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_degraded_total counter\n")
	fmt.Fprintf(w, "hkpr_serve_degraded_total{kind=\"stale\"} %d\n", m.DegradedStaleServed.Load())
	fmt.Fprintf(w, "hkpr_serve_degraded_total{kind=\"clamped\"} %d\n", m.DegradedClampedServed.Load())
	counter("revalidations_total", "Background recomputations of stale-served keys.", m.Revalidations.Load())
	fmt.Fprintf(w, "# HELP hkpr_serve_cache_invalidated_total Cached results dropped by live updates, by reason.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_cache_invalidated_total counter\n")
	fmt.Fprintf(w, "hkpr_serve_cache_invalidated_total{reason=\"radius\"} %d\n", m.CacheInvalidatedRadius.Load())
	fmt.Fprintf(w, "hkpr_serve_cache_invalidated_total{reason=\"stale-epoch\"} %d\n", m.CacheInvalidatedStale.Load())
	fmt.Fprintf(w, "# HELP hkpr_serve_invariant_violations_total Inline invariant checks that failed, by invariant kind.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_invariant_violations_total counter\n")
	for kind := core.InvariantKind(0); kind < core.NumInvariantKinds; kind++ {
		fmt.Fprintf(w, "hkpr_serve_invariant_violations_total{kind=%q} %d\n",
			kind.String(), m.InvariantViolations[kind].Load())
	}
	gauge("in_flight", "Queries currently executing.", m.InFlight.Load())
	gauge("queue_depth", "Queries waiting in the admission queue.", int64(len(e.queue)))
	gauge("queue_capacity", "Admission queue capacity.", int64(e.cfg.QueueDepth))
	gauge("workers", "Worker goroutines.", int64(e.cfg.Workers))
	gauge("cpu_tokens", "Shared CPU-token budget for workers and walk shards.", int64(e.cfg.CPUTokens))
	gauge("cpu_tokens_free", "CPU tokens currently free.", int64(e.cpu.freeTokens()))
	adaptive := int64(0)
	if e.cfg.Adaptive {
		adaptive = 1
	}
	gauge("adaptive", "Whether per-query parallelism adapts to load (1) or is static (0).", adaptive)
	gauge("last_parallelism", "Parallelism chosen for the most recently started execution.", m.LastParallelism.Load())
	gauge("graph_epoch", "Current graph snapshot epoch (0 on a static graph).", int64(m.GraphEpoch.Load()))
	fmt.Fprintf(w, "# HELP hkpr_serve_queue_depth_ewma Smoothed admission-queue depth seen by adaptive parallelism (live depth on non-adaptive engines).\n# TYPE hkpr_serve_queue_depth_ewma gauge\nhkpr_serve_queue_depth_ewma %g\n",
		e.effectiveQueueDepthEWMA())
	gauge("workspaces_in_use", "Pooled query workspaces currently checked out.", e.wsOut.Load())
	if e.cache != nil {
		entries, bytes := e.cache.stats()
		gauge("cache_entries", "Entries in the result cache.", entries)
		gauge("cache_bytes", "Bytes pinned by the result cache.", bytes)
		gauge("cache_capacity_bytes", "Result-cache byte budget.", e.cache.capacity)
	}
	if e.pressure != nil {
		gauge("pressure_level", "Current pressure tier (0=nominal 1=elevated 2=overloaded 3=critical).", int64(e.pressure.current()))
		counter("pressure_transitions_total", "Pressure tier changes since start.", e.pressure.transitions.Load())
	}
	fmt.Fprintf(w, "# HELP hkpr_serve_drain_estimate_seconds Current Retry-After drain estimate for shed callers.\n# TYPE hkpr_serve_drain_estimate_seconds gauge\nhkpr_serve_drain_estimate_seconds %g\n",
		e.DrainEstimate().Seconds())
	if e.stale != nil {
		entries, bytes := e.stale.stats()
		gauge("stale_entries", "Entries parked in the stale-while-revalidate arena.", entries)
		gauge("stale_bytes", "Bytes pinned by the stale arena (counted inside the configured cache budget).", bytes)
		gauge("stale_capacity_bytes", "Stale-arena byte budget (carved out of the configured cache budget).", e.stale.budget)
		counter("stale_evicted_total", "Stale-arena entries dropped to fit its budget.", e.stale.evicted.Load())
	}
	if e.ring != nil {
		gauge("trace_ring_capacity", "Completed-query trace ring capacity.", int64(len(e.ring.slots)))
	}
	if e.batch != nil {
		gauge("batch_pending", "Queries currently waiting in the batching window.", e.batch.pending.Load())
		fmt.Fprintf(w, "# HELP hkpr_serve_batch_size Sources per batched execution.\n")
		fmt.Fprintf(w, "# TYPE hkpr_serve_batch_size histogram\n")
		m.batchSize.writeProm(w, "hkpr_serve_batch_size")
	}

	fmt.Fprintf(w, "# HELP hkpr_serve_latency_seconds Execution latency of served queries.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_latency_seconds histogram\n")
	m.latency.writeProm(w, "hkpr_serve_latency_seconds", "")

	fmt.Fprintf(w, "# HELP hkpr_serve_stage_seconds Duration of each query pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE hkpr_serve_stage_seconds histogram\n")
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		m.stage[s].writeProm(w, "hkpr_serve_stage_seconds", fmt.Sprintf("stage=%q", s.String()))
	}
}
