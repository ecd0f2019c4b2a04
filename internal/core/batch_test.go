package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hkpr/internal/gen"
	"hkpr/internal/graph"
)

// batchTestGraph is large enough that default-rmax TEA frontiers reach
// hundreds of nodes per hop, so lanes overlap heavily in the shared scan.
func batchTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerlawCluster(3000, 4, 0.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func batchOpts(g *graph.Graph) Options {
	return Options{
		T:           5,
		Delta:       1 / float64(g.N()),
		FailureProb: 1e-4,
		Seed:        42,
	}
}

func batchSeeds(g *graph.Graph, k int) []graph.NodeID {
	seeds := make([]graph.NodeID, 0, k)
	for v := 0; len(seeds) < k; v++ {
		id := graph.NodeID((v * 37) % g.N())
		if g.Degree(id) > 0 {
			seeds = append(seeds, id)
		}
	}
	return seeds
}

// requireSameResult asserts bit-identical scores and the deterministic subset
// of Stats (parallelism- and time-valued fields excluded).
func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil batched result", label)
	}
	if want.Seed != got.Seed {
		t.Fatalf("%s: seed %d != %d", label, got.Seed, want.Seed)
	}
	if want.OffsetPerDegree != got.OffsetPerDegree {
		t.Fatalf("%s: offset %v != %v", label, got.OffsetPerDegree, want.OffsetPerDegree)
	}
	if len(want.Scores) != len(got.Scores) {
		t.Fatalf("%s: support %d != %d", label, len(got.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if want.Scores[i] != got.Scores[i] {
			t.Fatalf("%s: entry %d: got %v want %v", label, i, got.Scores[i], want.Scores[i])
		}
	}
	ws, gs := want.Stats, got.Stats
	if ws.PushOperations != gs.PushOperations || ws.PushedNodes != gs.PushedNodes ||
		ws.RandomWalks != gs.RandomWalks || ws.WalkSteps != gs.WalkSteps ||
		ws.ResidueMassBeforeWalks != gs.ResidueMassBeforeWalks ||
		ws.MaxHop != gs.MaxHop ||
		ws.WalkShards != gs.WalkShards || ws.EarlyTermination != gs.EarlyTermination {
		t.Fatalf("%s: stats diverge:\nwant %+v\ngot  %+v", label, ws, gs)
	}
}

type manyMethod struct {
	name   string
	single func(e *Estimator, seed graph.NodeID, q Options) (*Result, error)
	many   func(e *Estimator, bc BatchContext, seeds []graph.NodeID, q Options) ([]*Result, []error, error)
}

var manyMethods = []manyMethod{
	{
		name:   "tea",
		single: func(e *Estimator, s graph.NodeID, q Options) (*Result, error) { return e.TEA(s, q) },
		many: func(e *Estimator, bc BatchContext, s []graph.NodeID, q Options) ([]*Result, []error, error) {
			return e.TEAManyContext(bc, s, q)
		},
	},
	{
		name:   "teaplus",
		single: func(e *Estimator, s graph.NodeID, q Options) (*Result, error) { return e.TEAPlus(s, q) },
		many: func(e *Estimator, bc BatchContext, s []graph.NodeID, q Options) ([]*Result, []error, error) {
			return e.TEAPlusManyContext(bc, s, q)
		},
	},
	{
		name:   "monte-carlo",
		single: func(e *Estimator, s graph.NodeID, q Options) (*Result, error) { return e.MonteCarlo(s, q) },
		many: func(e *Estimator, bc BatchContext, s []graph.NodeID, q Options) ([]*Result, []error, error) {
			return e.MonteCarloManyContext(bc, s, q)
		},
	},
}

// TestEstimateManyBitIdentity is the batch mode's core property: for every
// method, EstimateMany results are bit-identical (entry-wise ScoreVector
// equality plus the deterministic Stats) to k independent runs, at every
// parallelism, for batch sizes spanning one lane group, partial groups and
// multiple sequential groups.
func TestEstimateManyBitIdentity(t *testing.T) {
	g := batchTestGraph(t)
	opts := batchOpts(g)
	for _, m := range manyMethods {
		t.Run(m.name, func(t *testing.T) {
			est, err := NewEstimator(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			seeds := batchSeeds(g, 64)
			baseline := make([]*Result, len(seeds))
			for i, s := range seeds {
				r, err := m.single(est, s, Options{Parallelism: 1})
				if err != nil {
					t.Fatalf("single %s(%d): %v", m.name, s, err)
				}
				baseline[i] = r
			}
			if m.name == "tea" {
				// Self-check that this graph still drives big frontiers
				// through the shared scan and shards the walks, so P has a
				// stage to change.
				requireBigFrontier(t, baseline[0].Stats)
			}
			if m.name != "teaplus" && baseline[0].Stats.WalkShards < 2 {
				t.Fatalf("walk stage not sharded (%d shards); P changes nothing and the test is vacuous",
					baseline[0].Stats.WalkShards)
			}
			for _, k := range []int{1, 2, 8, 64} {
				for _, p := range []int{1, 2, 8} {
					results, errs, err := m.many(est, BatchContext{}, seeds[:k], Options{Parallelism: p})
					if err != nil {
						t.Fatalf("k=%d P=%d: %v", k, p, err)
					}
					for i := 0; i < k; i++ {
						if errs[i] != nil {
							t.Fatalf("k=%d P=%d source %d: %v", k, p, i, errs[i])
						}
						requireSameResult(t, fmt.Sprintf("%s k=%d P=%d seed %d", m.name, k, p, seeds[i]), baseline[i], results[i])
					}
				}
			}
		})
	}
}

// TestEstimateManyWalkHeavy covers the sharded-walk regime: with a loose rmax
// most mass survives the push, so per-lane walk streams (and their shard
// seeds) dominate the result.
func TestEstimateManyWalkHeavy(t *testing.T) {
	g := batchTestGraph(t)
	opts := batchOpts(g)
	opts.RmaxScale = 20
	est, err := NewEstimator(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(g, 8)
	results, errs, err := est.TEAMany(seeds, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		want, err := est.TEA(s, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && want.Stats.WalkShards < 2 {
			t.Fatalf("walk-heavy options no longer shard walks (shards=%d)", want.Stats.WalkShards)
		}
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameResult(t, fmt.Sprintf("walk-heavy seed %d", s), want, results[i])
	}
}

// TestEstimateManyStageTimesWithinWallTime: work a lane group shares — the
// push scan, the fused collection, the audits' reserve sums and the demux —
// is split over the lanes it served, so the group's per-lane stage times sum
// to no more than the group's wall time.
func TestEstimateManyStageTimesWithinWallTime(t *testing.T) {
	g := batchTestGraph(t)
	est, err := NewEstimator(g, batchOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(g, maxBatchLanes)
	audits := make([]*InvariantAudit, len(seeds))
	for i := range audits {
		audits[i] = &InvariantAudit{}
	}
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		results, errs, err := est.TEAManyContext(BatchContext{SourceAudit: audits}, seeds, Options{Parallelism: 1})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for i, r := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			st := r.Stats
			if st.PushTime <= 0 || st.PlanTime <= 0 || st.AuditTime <= 0 || st.MergeTime <= 0 {
				t.Fatalf("lane %d: a stage went untimed: %+v", i, st)
			}
			sum += st.PushTime + st.PlanTime + st.WalkTime + st.MergeTime + st.AuditTime
		}
		if sum > wall {
			t.Fatalf("per-lane stage times sum to %v, more than the group's wall time %v", sum, wall)
		}
	}
}

// TestEstimateManyDuplicateSeeds: duplicate sources in one batch are
// independent lanes with identical streams, so their results are identical.
func TestEstimateManyDuplicateSeeds(t *testing.T) {
	g := batchTestGraph(t)
	est, err := NewEstimator(g, batchOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	s := batchSeeds(g, 1)[0]
	results, errs, err := est.TEAMany([]graph.NodeID{s, s, s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameResult(t, "duplicate", results[0], results[i])
	}
}

// TestEstimateManyInvalidSeeds: estimator-level batches fail bad sources
// individually; the package-level EstimateMany rejects them up front.
func TestEstimateManyInvalidSeeds(t *testing.T) {
	g := batchTestGraph(t)
	opts := batchOpts(g)
	est, err := NewEstimator(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	good := batchSeeds(g, 2)
	seeds := []graph.NodeID{good[0], graph.NodeID(g.N() + 5), good[1], -1}
	for _, m := range manyMethods {
		results, errs, err := m.many(est, BatchContext{}, seeds, Options{})
		if err != nil {
			t.Fatalf("%s: batch-level error: %v", m.name, err)
		}
		if errs[1] == nil || errs[3] == nil {
			t.Fatalf("%s: invalid seeds not rejected: %v", m.name, errs)
		}
		if results[1] != nil || results[3] != nil {
			t.Fatalf("%s: invalid seeds produced results", m.name)
		}
		for _, i := range []int{0, 2} {
			if errs[i] != nil || results[i] == nil {
				t.Fatalf("%s: valid source %d failed: %v", m.name, i, errs[i])
			}
			want, err := m.single(est, seeds[i], Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, m.name, want, results[i])
		}
	}
	if _, err := EstimateMany(g, seeds, opts); err == nil {
		t.Fatal("package-level EstimateMany accepted an invalid seed")
	}
}

// TestEstimateManyPackageLevel: the public convenience wrapper matches
// independent TEAPlus runs.
func TestEstimateManyPackageLevel(t *testing.T) {
	g := batchTestGraph(t)
	opts := batchOpts(g)
	seeds := batchSeeds(g, 5)
	results, err := EstimateMany(g, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		want, err := TEAPlus(g, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "package", want, results[i])
	}
}

// TestEstimateManyMidBatchCancellation: cancelling one source's context drops
// that source alone; the surviving sources stay bit-identical, and the next
// batch on the same estimator (and hence the same pooled workspace) is
// unaffected by the aborted lane's partial state.
func TestEstimateManyMidBatchCancellation(t *testing.T) {
	g := batchTestGraph(t)
	est, err := NewEstimator(g, batchOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(g, 8)
	baseline := make([]*Result, len(seeds))
	for i, s := range seeds {
		r, err := est.TEA(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = r
	}

	const victim = 3
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	srcCtx := make([]context.Context, len(seeds))
	srcCtx[victim] = canceled
	bc := BatchContext{SourceCtx: srcCtx}
	bc.CheckEvery = 1 // cancel at the first checkpoint, mid-push
	results, errs, err := est.TEAManyContext(bc, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[victim], context.Canceled) {
		t.Fatalf("victim error = %v, want context.Canceled", errs[victim])
	}
	if results[victim] != nil {
		t.Fatal("canceled source produced a result")
	}
	for i := range seeds {
		if i == victim {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		requireSameResult(t, fmt.Sprintf("survivor %d", i), baseline[i], results[i])
	}

	// Workspace hygiene: the aborted lane left partial slab state behind;
	// the next batch must be unaffected.
	again, errs, err := est.TEAMany(seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireSameResult(t, fmt.Sprintf("rerun %d", i), baseline[i], again[i])
	}
}

// TestEstimateManyBatchLevelCancellation: a done batch-level context fails
// every source.
func TestEstimateManyBatchLevelCancellation(t *testing.T) {
	g := batchTestGraph(t)
	est, err := NewEstimator(g, batchOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bc := BatchContext{}
	bc.Ctx = ctx
	seeds := batchSeeds(g, 4)
	for _, m := range manyMethods {
		results, errs, err := m.many(est, bc, seeds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("%s source %d: err = %v, want canceled", m.name, i, errs[i])
			}
			if results[i] != nil {
				t.Fatalf("%s source %d: result after cancellation", m.name, i)
			}
		}
	}
}

// TestEstimateManyPerSourceAudits: the shared pass runs mass-conservation
// checks per source, accumulating into each source's own audit.
func TestEstimateManyPerSourceAudits(t *testing.T) {
	g := batchTestGraph(t)
	est, err := NewEstimator(g, batchOpts(g))
	if err != nil {
		t.Fatal(err)
	}
	seeds := batchSeeds(g, 4)
	audits := make([]*InvariantAudit, len(seeds))
	for i := range audits {
		audits[i] = &InvariantAudit{Strict: true}
	}
	results, errs, err := est.TEAManyContext(BatchContext{SourceAudit: audits}, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("source %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("source %d: nil result", i)
		}
		// Mass conservation + the two result checks, all clean.
		if audits[i].Checks < 3 {
			t.Fatalf("source %d: %d checks, want >= 3", i, audits[i].Checks)
		}
		if audits[i].TotalViolations() != 0 {
			t.Fatalf("source %d: violations: %s", i, audits[i].FirstViolation)
		}
	}
}

// BenchmarkEstimateMany tracks the batch amortization on the perf-gate graph
// (10k-node PLC, the same family cmd/hkprbench -perf uses): per-query ns at
// k=8 should sit well below k=1.
func BenchmarkEstimateMany(b *testing.B) {
	g, err := gen.PowerlawCluster(10000, 4, 0.5, 13)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{T: 5, EpsRel: 0.5, Delta: 1 / float64(g.N()), FailureProb: 1e-6, Seed: 1}
	est, err := NewEstimator(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			seeds := make([]graph.NodeID, k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range seeds {
					seeds[j] = graph.NodeID((i*k + j) % g.N())
				}
				if _, _, err := est.TEAMany(seeds, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
