package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"hkpr/internal/gen"
	"hkpr/internal/graph"
)

func parallelTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerlawCluster(3000, 4, 0.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// walkHeavyOpts makes the walk phase the dominant cost: a loose rmax keeps
// the push cheap so plenty of residue mass survives into the walk stage.
func walkHeavyOpts(g *graph.Graph) Options {
	return Options{
		Delta:       1 / float64(g.N()),
		FailureProb: 1e-4,
		RmaxScale:   20,
		Seed:        42,
	}
}

// TestSerialParallelEquivalence is the pipeline's core property: for a fixed
// Options.Seed the result is bit-identical at any parallelism, because walks
// are sharded deterministically and merged in shard order.
func TestSerialParallelEquivalence(t *testing.T) {
	g := parallelTestGraph(t)
	base := walkHeavyOpts(g)

	type runFn func(p int) (*Result, error)
	runs := map[string]runFn{
		"TEA": func(p int) (*Result, error) {
			o := base
			o.Parallelism = p
			return TEA(g, 7, o)
		},
		"TEA+": func(p int) (*Result, error) {
			o := base
			// A hop cap of 1 stops the push almost immediately, so TEA+
			// cannot early-terminate and must run a real walk phase.
			o.Delta = 0.002
			o.C = 1e-3
			o.Parallelism = p
			return TEAPlus(g, 7, o)
		},
		"MonteCarlo": func(p int) (*Result, error) {
			o := base
			o.Delta = 0.002 // keep the walk count test-friendly
			o.Parallelism = p
			return MonteCarloOnly(g, 7, o)
		},
	}

	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			serial, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.RandomWalks == 0 {
				t.Fatalf("%s: walk phase did not run; test is vacuous", name)
			}
			if serial.Stats.WalkShards < 2 {
				t.Fatalf("%s: only %d walk shard(s); parallelism untested", name, serial.Stats.WalkShards)
			}
			for _, p := range []int{2, 8} {
				par, err := run(p)
				if err != nil {
					t.Fatal(err)
				}
				if par.Stats.RandomWalks != serial.Stats.RandomWalks {
					t.Fatalf("P=%d walks %d != serial %d", p, par.Stats.RandomWalks, serial.Stats.RandomWalks)
				}
				if par.Stats.WalkSteps != serial.Stats.WalkSteps {
					t.Fatalf("P=%d steps %d != serial %d", p, par.Stats.WalkSteps, serial.Stats.WalkSteps)
				}
				if len(par.Scores) != len(serial.Scores) {
					t.Fatalf("P=%d support %d != serial %d", p, len(par.Scores), len(serial.Scores))
				}
				for i, e := range serial.Scores {
					if par.Scores[i] != e {
						t.Fatalf("P=%d score at node %d: %v != serial %v (bit-identity violated)", p, e.Node, par.Scores[i], e)
					}
				}
				if par.OffsetPerDegree != serial.OffsetPerDegree {
					t.Fatalf("P=%d offset %v != serial %v", p, par.OffsetPerDegree, serial.OffsetPerDegree)
				}
			}
		})
	}
}

// TestWalkShardCountIndependentOfParallelism pins the sharding function:
// shard count depends only on the walk budget.
func TestWalkShardCountIndependentOfParallelism(t *testing.T) {
	if got := walkShardCount(0); got != 1 {
		t.Errorf("walkShardCount(0)=%d", got)
	}
	if got := walkShardCount(minWalksPerShard - 1); got != 1 {
		t.Errorf("tiny budgets must not shard, got %d", got)
	}
	if got := walkShardCount(10 * minWalksPerShard); got != 10 {
		t.Errorf("walkShardCount(10*min)=%d", got)
	}
	if got := walkShardCount(1 << 40); got != maxWalkShards {
		t.Errorf("huge budgets must cap at %d, got %d", maxWalkShards, got)
	}
}

// TestShardWalksPartition checks the per-shard budgets partition nr exactly.
func TestShardWalksPartition(t *testing.T) {
	p := &walkPlan{nr: 100_003, shards: 32}
	var total int64
	for i := 0; i < p.shards; i++ {
		w := p.shardWalks(i)
		if w < p.nr/int64(p.shards) || w > p.nr/int64(p.shards)+1 {
			t.Fatalf("shard %d budget %d not balanced", i, w)
		}
		total += w
	}
	if total != p.nr {
		t.Fatalf("shard budgets sum to %d, want %d", total, p.nr)
	}
}

// TestShardRoundsPartition checks the walk rounds tile every shard's budget:
// within a round the shards' ranges are contiguous from 0, and over all
// rounds shard i runs exactly shardWalks(i) walks.
func TestShardRoundsPartition(t *testing.T) {
	for _, tc := range []struct {
		nr       int64
		shards   int
		roundLen int64
	}{
		{100_003, 32, 1 << 15}, // one round
		{5_000_000, 32, 1 << 15},
		{32 * 3 << 15, 32, 1 << 15},   // whole rounds, no remainder
		{32*(2<<15) + 5, 32, 1 << 15}, // a last round of one walk on 5 shards
		{7, 1, 3},
	} {
		p := &walkPlan{nr: tc.nr, shards: tc.shards, roundLen: tc.roundLen}
		perShard := make([]int64, p.shards)
		for r := range p.rounds() {
			next := int64(0)
			for i := 0; i < p.shards; i++ {
				n, off := p.shardRound(i, r)
				if off != next || n < 0 || n > p.roundLen {
					t.Fatalf("nr=%d round %d shard %d: range [%d,+%d) after %d", p.nr, r, i, off, n, next)
				}
				next += n
				perShard[i] += n
			}
			if next == 0 {
				t.Fatalf("nr=%d: round %d is empty", p.nr, r)
			}
		}
		for i, got := range perShard {
			if want := p.shardWalks(i); got != want {
				t.Fatalf("nr=%d shard %d ran %d walks over %d rounds, want %d", p.nr, i, got, p.rounds(), want)
			}
		}
	}
}

// TestMultiRoundWalkStageBitIdentity runs a walk budget too large for one
// round: the rounds must add up to the planned walk count, and the result
// must stay bit-identical at any parallelism.
func TestMultiRoundWalkStageBitIdentity(t *testing.T) {
	g := parallelTestGraph(t)
	est, err := NewEstimator(g, Options{Delta: 1e-4, FailureProb: 1e-4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var serial *Result
	for _, p := range []int{1, 2, 8} {
		res, err := est.MonteCarlo(5, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RandomWalks <= maxRoundWalks {
			t.Fatalf("%d walks fit one round; the test is vacuous", res.Stats.RandomWalks)
		}
		if serial == nil {
			serial = res
			continue
		}
		if res.Stats.RandomWalks != serial.Stats.RandomWalks || len(res.Scores) != len(serial.Scores) {
			t.Fatalf("P=%d: %d walks, support %d; serial %d walks, support %d", p,
				res.Stats.RandomWalks, len(res.Scores), serial.Stats.RandomWalks, len(serial.Scores))
		}
		for i, e := range serial.Scores {
			if res.Scores[i] != e {
				t.Fatalf("P=%d score at node %d: %v != serial %v", p, e.Node, res.Scores[i], e)
			}
		}
	}
	if m := serial.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("walk increments sum to %v, want 1", m)
	}
}

// TestSeedZeroOverride covers the Estimator.override fix: a per-query request
// for RNG seed 0 (via SeedSet / WithSeed) must not silently inherit the
// estimator's default seed.
func TestSeedZeroOverride(t *testing.T) {
	g := parallelTestGraph(t)
	est, err := NewEstimator(g, Options{Delta: 1 / float64(g.N()), FailureProb: 1e-4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	if got := est.Resolve(Options{}).Seed; got != 5 {
		t.Fatalf("unset query seed should inherit 5, got %d", got)
	}
	if got := est.Resolve(Options{Seed: 9}).Seed; got != 9 {
		t.Fatalf("non-zero query seed should override, got %d", got)
	}
	r := est.Resolve(Options{}.WithSeed(0))
	if r.Seed != 0 || !r.SeedSet {
		t.Fatalf("WithSeed(0) should resolve to seed 0, got %d (set=%v)", r.Seed, r.SeedSet)
	}

	// The resolved seed must actually drive the walks: an explicit seed-0
	// query matches a package-level run with Seed 0, not the estimator seed.
	want, err := TEA(g, 3, Options{Delta: 1 / float64(g.N()), FailureProb: 1e-4, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.TEA(3, Options{}.WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("seed-0 override: support %d != %d", len(got.Scores), len(want.Scores))
	}
	for i, e := range want.Scores {
		if got.Scores[i] != e {
			t.Fatalf("seed-0 override not honored: score mismatch at %d", e.Node)
		}
	}

	inherited, err := est.TEA(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := len(inherited.Scores) == len(want.Scores)
	if same {
		for i, e := range want.Scores {
			if inherited.Scores[i] != e {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("inherited-seed run unexpectedly identical to seed-0 run; override test is vacuous")
	}
}

// TestNegativeParallelismRejected covers Options.Validate.
func TestNegativeParallelismRejected(t *testing.T) {
	g := parallelTestGraph(t)
	o := walkHeavyOpts(g)
	o.Parallelism = -1
	if _, err := TEA(g, 1, o); err == nil {
		t.Fatal("negative parallelism should be rejected")
	}
}

// TestCancellationMidWalkShard aborts a parallel walk stage mid-flight and
// checks the context error propagates out of every layer.  Run under -race
// (as CI does) this also exercises the shard goroutines' synchronization.
func TestCancellationMidWalkShard(t *testing.T) {
	g := parallelTestGraph(t)
	est, err := NewEstimator(g, Options{Delta: 1 / float64(g.N()), FailureProb: 1e-4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	// Delta small enough that the walk budget is effectively unbounded, so
	// only cancellation can end the query.
	_, err = est.TEAPlusContext(OptionsContext{Ctx: ctx}, 2, Options{Delta: 1e-9, C: 1e-3, Parallelism: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("parallel walk cancellation took %v", elapsed)
	}
}

// countingGate is a CPUGate test double with a fixed budget.
type countingGate struct {
	mu       sync.Mutex
	free     int
	acquired int
	released int
}

func (g *countingGate) TryAcquire(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n > g.free {
		n = g.free
	}
	g.free -= n
	g.acquired += n
	return n
}

func (g *countingGate) Release(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.free += n
	g.released += n
}

// TestCPUGateLimitsWorkersAndIsBalanced checks the walk stage borrows at most
// Parallelism-1 extra tokens, returns every token it borrowed, and still
// produces the bit-identical result when the gate grants nothing.
func TestCPUGateLimitsWorkersAndIsBalanced(t *testing.T) {
	g := parallelTestGraph(t)
	est, err := NewEstimator(g, walkHeavyOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	gate := &countingGate{free: 2}
	res, err := est.TEAContext(OptionsContext{Ctx: ctx, CPU: gate}, 7, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WalkParallelism != 3 {
		t.Fatalf("gate granted 2 extras, so parallelism should be 3, got %d", res.Stats.WalkParallelism)
	}
	if gate.acquired != gate.released {
		t.Fatalf("gate leak: acquired %d released %d", gate.acquired, gate.released)
	}
	if gate.free != 2 {
		t.Fatalf("gate budget not restored: %d", gate.free)
	}

	starved := &countingGate{free: 0}
	serialRes, err := est.TEAContext(OptionsContext{Ctx: ctx, CPU: starved}, 7, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serialRes.Stats.WalkParallelism != 1 {
		t.Fatalf("starved gate should force serial, got P=%d", serialRes.Stats.WalkParallelism)
	}
	for i, e := range res.Scores {
		if serialRes.Scores[i] != e {
			t.Fatalf("gated results diverge at node %d", e.Node)
		}
	}
}
