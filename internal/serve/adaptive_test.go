package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hkpr/internal/core"
	"hkpr/internal/graph"
)

// TestAdaptiveParallelismIdleVsSaturated is the adaptive-P acceptance test:
// an idle adaptive engine fans a lone query across the whole CPU-token
// budget, a saturated admission queue degrades queries to P=1, and the token
// pool stays balanced throughout.
func TestAdaptiveParallelismIdleVsSaturated(t *testing.T) {
	const tokens = 6
	e := newTestEngine(t, Config{
		Workers: 1, QueueDepth: 16, CPUTokens: tokens, Adaptive: true, CacheBytes: -1,
	})

	// Idle engine: the single executing query holds one token, so the
	// adaptive choice is 1 + (tokens-1) free = the full budget.
	idle, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA, NoCache: true,
		Opts: core.Options{RmaxScale: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if idle.Parallelism != tokens {
		t.Fatalf("idle adaptive engine chose P=%d, want the full budget %d", idle.Parallelism, tokens)
	}

	// Saturated queue: hold the worker at the execution gate, pile queries
	// into the admission queue, then release.  Every query that executes
	// while the queue is deep must degrade to P=1.
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	e.execGate = func(*Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	const queued = 12
	var wg sync.WaitGroup
	resps := make([]*Response, queued)
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Do(context.Background(), Request{
				Seed: graph.NodeID(10 + i), Method: MethodTEA, NoCache: true,
				Opts: core.Options{RmaxScale: 20},
			})
		}(i)
	}
	<-entered
	deadline := time.After(5 * time.Second)
	for len(e.queue) < queued-1 {
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %d/%d", len(e.queue), queued-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	serial := 0
	for i := 0; i < queued; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		p := resps[i].Parallelism
		if p < 1 || p > tokens {
			t.Fatalf("query %d chose P=%d outside [1,%d]", i, p, tokens)
		}
		if p == 1 {
			serial++
		}
		if wp := resps[i].Result.Stats.WalkParallelism; wp > tokens {
			t.Fatalf("query %d used %d walk goroutines, budget is %d", i, wp, tokens)
		}
	}
	// With one worker the i-th execution sees queued-1-i waiting queries, and
	// the adaptive formula degrades to P=1 whenever the depth is at least
	// tokens-1 — i.e. for at least queued-tokens of the executions here; only
	// the tail widens again as the queue drains.
	if serial < queued-tokens {
		t.Fatalf("only %d/%d saturated queries degraded to P=1 (want ≥ %d)", serial, queued, queued-tokens)
	}

	// CPU-token invariant: every borrowed token came back.
	if free := e.cpu.freeTokens(); free != tokens {
		t.Fatalf("token pool leaked: %d/%d free after drain", free, tokens)
	}

	e.execGate = nil
	again, err := e.Do(context.Background(), Request{Seed: 3, Method: MethodTEA, NoCache: true,
		Opts: core.Options{RmaxScale: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Parallelism != tokens {
		t.Fatalf("engine did not widen back after drain: P=%d", again.Parallelism)
	}

	snap := e.Snapshot()
	if !snap.Adaptive {
		t.Fatal("snapshot should report adaptive mode")
	}
	if snap.LastParallelism != int64(tokens) {
		t.Fatalf("snapshot last_parallelism=%d, want %d", snap.LastParallelism, tokens)
	}
	var sb strings.Builder
	e.WritePrometheus(&sb)
	for _, want := range []string{"hkpr_serve_adaptive 1", "hkpr_serve_last_parallelism"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics output missing %q", want)
		}
	}
}

// TestAdaptiveRespectsPinsAndCeiling checks that a request pinning its own
// parallelism bypasses the adaptive choice and that Config.Parallelism caps
// it.
func TestAdaptiveRespectsPinsAndCeiling(t *testing.T) {
	e := newTestEngine(t, Config{
		Workers: 1, CPUTokens: 8, Adaptive: true, Parallelism: 3, CacheBytes: -1,
	})
	pinned, err := e.Do(context.Background(), Request{Seed: 5, Method: MethodTEA, NoCache: true,
		Opts: core.Options{RmaxScale: 20, Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Parallelism != 2 {
		t.Fatalf("pinned request resolved P=%d, want 2", pinned.Parallelism)
	}
	capped, err := e.Do(context.Background(), Request{Seed: 6, Method: MethodTEA, NoCache: true,
		Opts: core.Options{RmaxScale: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Parallelism != 3 {
		t.Fatalf("adaptive choice should be capped at 3, got %d", capped.Parallelism)
	}

	// An explicit ceiling of 1 means "adaptive but always serial": the
	// zero-vs-set ambiguity must not discard the operator's serial pin.
	serial := newTestEngine(t, Config{
		Workers: 1, CPUTokens: 8, Adaptive: true, Parallelism: 1, CacheBytes: -1,
	})
	resp, err := serial.Do(context.Background(), Request{Seed: 7, Method: MethodTEA, NoCache: true,
		Opts: core.Options{RmaxScale: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Parallelism != 1 {
		t.Fatalf("Parallelism=1 ceiling ignored under adaptive: got P=%d", resp.Parallelism)
	}
}

// TestCacheMissCountsOnlyAdmitted is the regression test for the metrics
// skew: coalesced callers and shed requests must not inflate CacheMisses —
// only an actually admitted execution counts one miss.
func TestCacheMissCountsOnlyAdmitted(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-release
	}

	const callers = 5
	req := Request{Seed: 77, Sweep: true}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	deadline := time.After(5 * time.Second)
	for e.metrics.Coalesced.Load() < callers-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d callers coalesced", e.metrics.Coalesced.Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if got := e.metrics.CacheMisses.Load(); got != 1 {
		t.Fatalf("%d cache misses for %d concurrent identical queries, want 1", got, callers)
	}
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("misses=%d hits=%d after cached re-query, want 1/1", snap.CacheMisses, snap.CacheHits)
	}
}

// TestCacheMissNotCountedWhenShed drives the admission queue to overflow and
// checks the shed request leaves the miss counter untouched.
func TestCacheMissNotCountedWhenShed(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	e.execGate = func(*Request) {
		entered <- struct{}{}
		<-release
	}

	done1 := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 1})
		done1 <- err
	}()
	<-entered

	done2 := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Seed: 2})
		done2 <- err
	}()
	deadline := time.After(5 * time.Second)
	for len(e.queue) == 0 {
		select {
		case <-deadline:
			t.Fatal("second query never queued")
		case <-time.After(time.Millisecond):
		}
	}

	if _, err := e.Do(context.Background(), Request{Seed: 3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if got := e.metrics.CacheMisses.Load(); got != 2 {
		t.Fatalf("shed request changed the miss count: %d, want 2", got)
	}

	close(release)
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}
