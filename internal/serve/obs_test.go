package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hkpr/internal/cluster"
	"hkpr/internal/core"
	"hkpr/internal/promtext"
	"hkpr/internal/trace"
)

// TestTraceRecordsExecution runs a traced query and checks the attached
// record: cache outcome, the full stage set, exact agreement between the
// push/walk/merge spans and the estimator's own Stats timings, and the
// invariant counters.
func TestTraceRecordsExecution(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, TraceBuffer: 8})
	resp, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := resp.Trace
	if rec == nil {
		t.Fatal("no trace attached")
	}
	if rec.CacheOutcome != trace.OutcomeMiss {
		t.Fatalf("cache outcome %q, want miss", rec.CacheOutcome)
	}
	if rec.Seed != 3 || rec.Method != MethodTEA {
		t.Fatalf("metadata: %+v", rec)
	}
	if rec.Parallelism != resp.Parallelism {
		t.Fatalf("trace parallelism %d != response %d", rec.Parallelism, resp.Parallelism)
	}
	for _, stage := range []string{"queue_wait", "cache_lookup", "workspace", "push", "walk", "merge"} {
		if _, ok := rec.StageDuration(stage); !ok {
			t.Fatalf("stage %q missing; got %s", stage, rec.StageSummary())
		}
	}
	st := resp.Result.Stats
	// The trace spans and Stats reuse the identical measurement, so they
	// agree to the nanosecond — the acceptance property behind comparing
	// /debug/queries output to core.Stats.
	for stage, want := range map[string]time.Duration{
		"push": st.PushTime, "walk": st.WalkTime, "merge": st.MergeTime,
	} {
		if got, _ := rec.StageDuration(stage); got != want {
			t.Fatalf("stage %q = %v, want Stats value %v", stage, got, want)
		}
	}
	if rec.InvariantChecks == 0 {
		t.Fatal("no invariant checks recorded on the trace")
	}
	if rec.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations on a healthy query", rec.InvariantViolations)
	}
	stats, ok := rec.Stats.(core.Stats)
	if !ok {
		t.Fatalf("trace Stats is %T, want core.Stats", rec.Stats)
	}
	if stats.PushTime != st.PushTime {
		t.Fatal("trace Stats diverges from response Stats")
	}
	// The ring saw the same record (modulo the caller-private render span).
	recs := e.TraceRecords()
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	if recs[0].Seed != 3 {
		t.Fatalf("ring record seed %d", recs[0].Seed)
	}
}

// TestTraceOnCacheHit checks a hit returns an inline trace of the lookup
// itself and that traces never leak into cached entries.
func TestTraceOnCacheHit(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	req := Request{Seed: 5, Method: MethodTEAPlus}
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Untraced hit: no trace materializes.
	resp, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.Trace != nil {
		t.Fatalf("untraced hit: cached=%v trace=%v", resp.Cached, resp.Trace)
	}
	// Traced hit: outcome hit, cache_lookup span present, no estimator
	// stages.
	req.Trace = true
	req.TopK = 3
	resp, err = e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("expected a cache hit")
	}
	rec := resp.Trace
	if rec == nil {
		t.Fatal("traced hit carried no trace")
	}
	if rec.CacheOutcome != trace.OutcomeHit {
		t.Fatalf("outcome %q, want hit", rec.CacheOutcome)
	}
	if _, ok := rec.StageDuration("cache_lookup"); !ok {
		t.Fatalf("no cache_lookup span: %s", rec.StageSummary())
	}
	if _, ok := rec.StageDuration("push"); ok {
		t.Fatal("hit trace has a push span")
	}
	if _, ok := rec.StageDuration("render"); !ok {
		t.Fatalf("TopK render not traced on hit: %s", rec.StageSummary())
	}
	if len(resp.Top) != 3 {
		t.Fatalf("TopK render missing: %d entries", len(resp.Top))
	}
}

// TestTraceUncachedOutcome checks NoCache queries are marked uncached.
func TestTraceUncachedOutcome(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	resp, err := e.Do(context.Background(), Request{Seed: 2, NoCache: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.CacheOutcome != trace.OutcomeUncached {
		t.Fatalf("trace %+v, want uncached outcome", resp.Trace)
	}
	if _, ok := resp.Trace.StageDuration("cache_lookup"); ok {
		t.Fatal("uncached trace has a cache_lookup span")
	}
}

// TestTraceRingNewestFirstAndBounded fills the ring past capacity and checks
// it keeps only the newest records, newest first.
func TestTraceRingNewestFirstAndBounded(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, TraceBuffer: 4})
	for seed := 0; seed < 7; seed++ {
		// NoCache so every request executes (and is recorded).
		if _, err := e.Do(context.Background(), Request{Seed: int32(seed), NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	recs := e.TraceRecords()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, wantSeed := range []int64{6, 5, 4, 3} {
		if recs[i].Seed != wantSeed {
			t.Fatalf("record %d seed %d, want %d (newest first)", i, recs[i].Seed, wantSeed)
		}
	}
	// Disabled ring reports nil.
	plain := newTestEngine(t, Config{Workers: 1})
	if _, err := plain.Do(context.Background(), Request{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if recs := plain.TraceRecords(); recs != nil {
		t.Fatalf("disabled ring returned %d records", len(recs))
	}
}

// TestInvariantCountersSoak checks the always-on audit advances the check
// counter over a spread of queries on all methods with zero violations, in
// both the snapshot and the Prometheus output.
func TestInvariantCountersSoak(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	for seed := 0; seed < 30; seed++ {
		method := []string{MethodTEAPlus, MethodTEA, MethodMonteCarlo}[seed%3]
		if _, err := e.Do(context.Background(), Request{Seed: int32(seed), Method: method, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Snapshot()
	if s.InvariantChecks < 30 {
		t.Fatalf("InvariantChecks = %d over 30 executions", s.InvariantChecks)
	}
	if len(s.InvariantViolations) != 0 {
		t.Fatalf("violations on healthy queries: %v", s.InvariantViolations)
	}
	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("hkpr_serve_invariant_checks_total %d", s.InvariantChecks)) {
		t.Fatal("invariant_checks_total missing or wrong")
	}
	for _, kind := range []string{"mass-conservation", "score-negative", "total-mass", "inequality11"} {
		want := fmt.Sprintf("hkpr_serve_invariant_violations_total{kind=%q} 0", kind)
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

// TestStrictInvariantInjection injects a violation through the audit hook and
// checks strict mode fails the query with core.ErrInvariantViolation while
// counting the violation — the serve-level half of the strict-500 path.
func TestStrictInvariantInjection(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, TraceBuffer: 4, StrictInvariants: true})
	inject := false
	e.auditHook = func(a *core.InvariantAudit) {
		if inject {
			a.Violations[core.InvariantTotalMass]++
			if a.FirstViolation == "" {
				a.FirstViolation = "total-mass: injected for test"
			}
		}
	}
	// Healthy strict query succeeds.
	if _, err := e.Do(context.Background(), Request{Seed: 1, NoCache: true}); err != nil {
		t.Fatalf("healthy strict query failed: %v", err)
	}
	inject = true
	_, err := e.Do(context.Background(), Request{Seed: 2, NoCache: true, Trace: true})
	if !errors.Is(err, core.ErrInvariantViolation) {
		t.Fatalf("err = %v, want ErrInvariantViolation", err)
	}
	if !strings.Contains(err.Error(), "injected for test") {
		t.Fatalf("error lost the description: %v", err)
	}
	s := e.Snapshot()
	if s.InvariantViolations["total-mass"] != 1 {
		t.Fatalf("violation not counted: %v", s.InvariantViolations)
	}
	if s.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", s.Errors)
	}
	// The failed execution's trace records the violation.
	recs := e.TraceRecords()
	if len(recs) == 0 || recs[0].InvariantViolations != 1 || recs[0].Error == "" {
		t.Fatalf("ring record did not capture the violation: %+v", recs)
	}

	// Without strict mode the same injection only counts.
	lax := newTestEngine(t, Config{Workers: 1})
	lax.auditHook = func(a *core.InvariantAudit) { a.Violations[core.InvariantScoreNegative]++ }
	if _, err := lax.Do(context.Background(), Request{Seed: 3, NoCache: true}); err != nil {
		t.Fatalf("non-strict violation failed the query: %v", err)
	}
	if v := lax.Snapshot().InvariantViolations["score-negative"]; v != 1 {
		t.Fatalf("non-strict violation not counted: %d", v)
	}
}

// TestSlowQueryLog checks the threshold gate and the logged stage summary.
func TestSlowQueryLog(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, SlowQueryThreshold: time.Nanosecond})
	var mu sync.Mutex
	var lines []string
	e.slowLog = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	if _, err := e.Do(context.Background(), Request{Seed: 4, Method: MethodTEA, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("%d slow-query lines, want 1: %v", len(lines), lines)
	}
	line := lines[0]
	for _, want := range []string{"slow query", "seed=4", "method=tea", "push=", "walk="} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query line %q missing %q", line, want)
		}
	}

	// A generous threshold stays silent.
	quiet := newTestEngine(t, Config{Workers: 1, SlowQueryThreshold: time.Hour})
	called := false
	quiet.slowLog = func(string, ...any) { called = true }
	if _, err := quiet.Do(context.Background(), Request{Seed: 4, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fast query logged as slow")
	}
}

// TestServeSweepK checks the bounded-sweep rendering knob: it renders on the
// caller's copy, shares the cache entry with plain vector queries, and
// matches a direct cluster.SweepK call.
func TestServeSweepK(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	ctx := context.Background()
	// Prime the cache with a vector-only query.
	first, err := e.Do(ctx, Request{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if first.Sweep != nil {
		t.Fatal("vector query rendered a sweep")
	}
	// SweepK shares that entry (cache hit) and renders a bounded sweep.
	resp, err := e.Do(ctx, Request{Seed: 6, SweepK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("SweepK request missed the cache (knob leaked into the key)")
	}
	if resp.Sweep == nil {
		t.Fatal("SweepK rendered no sweep")
	}
	want := cluster.SweepK(e.Graph(), first.Result.Scores, 10)
	if resp.Sweep.Conductance != want.Conductance || len(resp.Sweep.Cluster) != len(want.Cluster) {
		t.Fatalf("bounded sweep diverges: got φ=%v |C|=%d, want φ=%v |C|=%d",
			resp.Sweep.Conductance, len(resp.Sweep.Cluster), want.Conductance, len(want.Cluster))
	}
	// The cached entry is untouched: a later plain query still has no sweep.
	plain, err := e.Do(ctx, Request{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sweep != nil {
		t.Fatal("SweepK rendering leaked into the cached entry")
	}
	// A full-sweep request is keyed separately and keeps its full sweep even
	// when SweepK is also set.
	full, err := e.Do(ctx, Request{Seed: 6, Sweep: true, SweepK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if full.Sweep == nil {
		t.Fatal("full sweep missing")
	}
	fullWant := cluster.Sweep(e.Graph(), first.Result.Scores)
	if full.Sweep.Conductance != fullWant.Conductance {
		t.Fatal("SweepK overrode the requested full sweep")
	}
}

// TestSnapshotEWMAMirrorsQueueDepthWhenStatic pins the non-adaptive fix:
// queue_depth_ewma mirrors the live queue depth instead of reading 0.
func TestSnapshotEWMAMirrorsQueueDepthWhenStatic(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	// Cleanups run last-in first-out, so this one runs before the engine's
	// Close: a failed assertion must not leave the worker blocked while
	// Close waits for it.
	t.Cleanup(unblock)
	started := make(chan struct{})
	var first sync.Once
	// Block whichever request executes first, so the other three queue
	// behind it in whatever order they arrive.
	e.execGate = func(*Request) {
		first.Do(func() {
			close(started)
			<-release
		})
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Do(context.Background(), Request{Seed: int32(i), NoCache: true})
		}(i)
	}
	<-started
	// The blocker executes; the remaining requests pile up in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(e.queue) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s := e.Snapshot()
	if s.QueueDepth == 0 {
		t.Fatal("queue never filled")
	}
	if s.Adaptive {
		t.Fatal("test engine unexpectedly adaptive")
	}
	if s.QueueDepthEWMA != float64(s.QueueDepth) {
		t.Fatalf("static engine: queue_depth_ewma %v != queue_depth %d", s.QueueDepthEWMA, s.QueueDepth)
	}
	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), fmt.Sprintf("hkpr_serve_queue_depth_ewma %g", s.QueueDepthEWMA)) {
		// The depth may have drained between Snapshot and WritePrometheus;
		// accept any non-negative value as long as the metric exists.
		if !strings.Contains(buf.String(), "hkpr_serve_queue_depth_ewma ") {
			t.Fatal("queue_depth_ewma metric missing")
		}
	}
	unblock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestMetricsConcurrentReadersUnderLoad hammers Snapshot and WritePrometheus
// while queries execute; run under -race this is the concurrent-readers
// regression test for the metrics surface.
func TestMetricsConcurrentReadersUnderLoad(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, TraceBuffer: 16, SlowQueryThreshold: time.Nanosecond})
	e.slowLog = func(string, ...any) {} // keep the test log quiet
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.Snapshot()
				var buf bytes.Buffer
				e.WritePrometheus(&buf)
				if err := promtext.Validate(&buf); err != nil {
					t.Errorf("exposition invalid under load: %v", err)
					return
				}
				_ = e.TraceRecords()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				seed := int32((w*25 + i) % e.Graph().N())
				_, err := e.Do(context.Background(), Request{Seed: seed, Trace: i%2 == 0})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestPrometheusExpositionValid validates the full emitted payload with the
// independent exposition checker after a mixed workload.
func TestPrometheusExpositionValid(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, TraceBuffer: 8})
	// MethodTEA so the walk stage always runs (TEA+ may early-terminate and
	// skip walks entirely on the loose test estimator).
	for seed := 0; seed < 10; seed++ {
		if _, err := e.Do(context.Background(), Request{Seed: int32(seed % 5), Method: MethodTEA, Sweep: seed%2 == 0, TopK: 3}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	e.WritePrometheus(&buf)
	out := buf.String()
	if err := promtext.Validate(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	// The per-stage histogram series exist for every pipeline stage.
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		want := fmt.Sprintf("hkpr_serve_stage_seconds_count{stage=%q}", s.String())
		if !strings.Contains(out, want) {
			t.Fatalf("missing stage series %q", want)
		}
	}
	// Executed queries populated the estimator stages.
	for _, stage := range []string{"push", "walk", "merge", "cache_lookup", "queue_wait", "workspace", "sweep", "render"} {
		marker := fmt.Sprintf("hkpr_serve_stage_seconds_count{stage=%q} 0\n", stage)
		if strings.Contains(out, marker) {
			t.Fatalf("stage %q histogram never observed", stage)
		}
	}
}

// TestServeTracingAllocations bounds the per-query allocation cost of
// tracing: the trace path reuses pooled QueryTraces, so a traced execution
// adds only the frozen Record (and its spans slice) plus the response's
// trace plumbing.
func TestServeTracingAllocations(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheBytes: -1, TraceBuffer: 8})
	ctx := context.Background()
	req := Request{Seed: 9, Method: MethodTEA, Trace: true}
	if _, err := e.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(40, func() {
		if _, err := e.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	// The untraced execution floor is 33 (guarded at 36 in
	// TestServeSteadyStateAllocations); tracing adds the Record, its stage
	// slice, the Stats box and the error-free Finish bookkeeping.
	limit := 50.0
	if raceEnabled {
		limit = 220
	}
	if avg > limit {
		t.Fatalf("traced execution allocs/op = %.1f, want <= %.0f", avg, limit)
	}
}
