// Benchmarks that regenerate every table and figure of the paper's evaluation
// (§7) at reduced scale, plus micro-benchmarks of the core estimators.
//
// Each BenchmarkTable*/BenchmarkFig* target runs the corresponding experiment
// from internal/bench on the ScaleTest dataset stand-ins so the whole suite
// finishes in minutes; the full-size reproduction is run through
// cmd/hkprbench (see EXPERIMENTS.md).  Reported ns/op is the wall-clock cost
// of regenerating that artifact once.
package hkpr_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"hkpr"
	"hkpr/internal/bench"
	"hkpr/internal/dataset"
)

// benchConfig is the shared reduced-size configuration for the experiment
// benchmarks.
func benchConfig(datasets ...string) bench.Config {
	return bench.Config{
		Scale:           dataset.ScaleTest,
		SeedsPerDataset: 3,
		Datasets:        datasets,
		RNGSeed:         1,
	}
}

func runExperiment(b *testing.B, id string, cfg bench.Config) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// --- one benchmark per paper table/figure -----------------------------------

func BenchmarkTable7DatasetStats(b *testing.B) {
	runExperiment(b, "table7", benchConfig())
}

func BenchmarkFig2TuneC(b *testing.B) {
	runExperiment(b, "fig2", benchConfig("dblp", "plc", "orkut"))
}

func BenchmarkFig3TEAvsTEAPlus(b *testing.B) {
	runExperiment(b, "fig3", benchConfig("dblp", "plc", "orkut"))
}

func BenchmarkFig4TimeVsConductance(b *testing.B) {
	runExperiment(b, "fig4", benchConfig("dblp", "plc"))
}

func BenchmarkFig5MemoryVsConductance(b *testing.B) {
	runExperiment(b, "fig5", benchConfig("dblp", "plc"))
}

func BenchmarkFig6NDCG(b *testing.B) {
	runExperiment(b, "fig6", benchConfig("dblp", "plc"))
}

func BenchmarkTable8GroundTruthF1(b *testing.B) {
	runExperiment(b, "table8", benchConfig("dblp"))
}

func BenchmarkFig7SubgraphDensity(b *testing.B) {
	runExperiment(b, "fig7", benchConfig("dblp", "plc"))
}

func BenchmarkFig8HeatConstantDBLP(b *testing.B) {
	runExperiment(b, "fig8", benchConfig("dblp"))
}

func BenchmarkFig9HeatConstantPLC(b *testing.B) {
	runExperiment(b, "fig9", benchConfig("plc"))
}

func BenchmarkAblationTEAPlus(b *testing.B) {
	runExperiment(b, "ablation", benchConfig("plc"))
}

// --- micro-benchmarks of individual queries ----------------------------------

func benchGraph(b *testing.B) *hkpr.Graph {
	b.Helper()
	g, err := hkpr.GeneratePLC(20000, 5, 0.5, 13)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchOpts(g *hkpr.Graph, seed uint64) hkpr.Options {
	return hkpr.Options{T: 5, EpsRel: 0.5, Delta: 1 / float64(g.N()), FailureProb: 1e-6, Seed: seed}
}

func BenchmarkQueryTEAPlus(b *testing.B) {
	g := benchGraph(b)
	c, err := hkpr.NewClusterer(g, benchOpts(g, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LocalCluster(hkpr.NodeID(i % g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTEA(b *testing.B) {
	g := benchGraph(b)
	c, err := hkpr.NewClustererWithMethod(g, benchOpts(g, 1), hkpr.MethodTEA)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LocalCluster(hkpr.NodeID(i % g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryMonteCarlo(b *testing.B) {
	g := benchGraph(b)
	// Monte-Carlo at δ=1/n is the expensive baseline; loosen δ slightly so a
	// single iteration stays in benchmark-friendly territory while keeping
	// the relative ordering visible.
	opts := benchOpts(g, 1)
	opts.Delta *= 4
	c, err := hkpr.NewClustererWithMethod(g, opts, hkpr.MethodMonteCarlo)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LocalCluster(hkpr.NodeID(i % g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHKRelax(b *testing.B) {
	g := benchGraph(b)
	opts := benchOpts(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hkpr.EstimateHKPR(g, hkpr.NodeID(i%g.N()), hkpr.MethodHKRelax, opts)
		if err != nil {
			b.Fatal(err)
		}
		hkpr.Sweep(g, res.Scores)
	}
}

func BenchmarkQueryExactPowerMethod(b *testing.B) {
	g := benchGraph(b)
	opts := benchOpts(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hkpr.EstimateHKPR(g, hkpr.NodeID(i%g.N()), hkpr.MethodExact, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving-path benchmarks -------------------------------------------------
//
// These anchor the perf trajectory of the internal/serve engine: the cached
// path must stay orders of magnitude faster than the cold path, and adding
// workers must increase throughput on concurrent load.

func benchEngine(b *testing.B, cfg hkpr.EngineConfig) *hkpr.Engine {
	b.Helper()
	g := benchGraph(b)
	eng, err := hkpr.NewEngine(g, benchOpts(g, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// BenchmarkServeColdQuery measures the full scheduler+estimator+sweep path
// with the cache bypassed: every iteration executes the core estimator.
func BenchmarkServeColdQuery(b *testing.B) {
	eng := benchEngine(b, hkpr.EngineConfig{Workers: 1, QueueDepth: 4})
	n := eng.Graph().N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eng.Do(context.Background(), hkpr.ServeRequest{
			Seed: hkpr.NodeID(i % n), Sweep: true, NoCache: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCachedQuery measures the steady-state hot path: after the
// first execution every identical query is a cache hit.
func BenchmarkServeCachedQuery(b *testing.B) {
	eng := benchEngine(b, hkpr.EngineConfig{Workers: 1, QueueDepth: 4})
	req := hkpr.ServeRequest{Seed: 7, Sweep: true}
	if _, err := eng.Do(context.Background(), req); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 && !resp.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// benchServeParallel drives concurrent uncached queries over a fixed seed
// set through an engine with the given worker count; compare Workers=1
// against Workers=GOMAXPROCS for the scheduler's scaling.
func benchServeParallel(b *testing.B, workers int) {
	eng := benchEngine(b, hkpr.EngineConfig{
		Workers: workers, QueueDepth: 1024, CacheBytes: -1,
	})
	n := eng.Graph().N()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			_, err := eng.Do(context.Background(), hkpr.ServeRequest{
				Seed: hkpr.NodeID(i % int64(n)), NoCache: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchServeWalkHeavy measures cold-query latency of a walk-dominated TEA
// query (loose rmax leaves ~all mass to the Monte-Carlo walk stage) at the
// given intra-query parallelism.  Comparing the P=1 and P=4 variants shows
// the sharded walk stage's latency win on multi-core hardware; results are
// bit-identical across the variants, so this is purely a latency knob.
func benchServeWalkHeavy(b *testing.B, parallelism int) {
	g, err := hkpr.GeneratePLC(50000, 5, 0.5, 13)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hkpr.NewEngine(g, benchOpts(g, 1), hkpr.EngineConfig{
		Workers: 1, QueueDepth: 4, Parallelism: parallelism, CPUTokens: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	n := g.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Do(context.Background(), hkpr.ServeRequest{
			Seed: hkpr.NodeID(i % n), Method: string(hkpr.MethodTEA), NoCache: true,
			Opts: hkpr.Options{RmaxScale: 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && resp.Result.Stats.WalkShards < 2 {
			b.Fatalf("walk stage not sharded (%d shards); benchmark is vacuous", resp.Result.Stats.WalkShards)
		}
	}
}

func BenchmarkServeColdWalkHeavyP1(b *testing.B) { benchServeWalkHeavy(b, 1) }

func BenchmarkServeColdWalkHeavyP4(b *testing.B) { benchServeWalkHeavy(b, 4) }

// benchServePushHeavy measures cold-query latency of a push-dominated TEA
// query (the default tight rmax keeps nearly all the work in HK-Push's
// serial per-hop frontier scans) at the given intra-query parallelism.
func benchServePushHeavy(b *testing.B, parallelism int) {
	g, err := hkpr.GeneratePLC(50000, 5, 0.5, 13)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hkpr.NewEngine(g, benchOpts(g, 1), hkpr.EngineConfig{
		Workers: 1, QueueDepth: 4, Parallelism: parallelism, CPUTokens: parallelism,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	n := g.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Do(context.Background(), hkpr.ServeRequest{
			Seed: hkpr.NodeID(i % n), Method: string(hkpr.MethodTEA), NoCache: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		// More pushes than 256 per hop level can only come from a frontier
		// of at least 256 nodes.
		if st := resp.Result.Stats; i == 0 && st.PushedNodes < 256*int64(st.MaxHop+1) {
			b.Fatalf("no push frontier reached 256 nodes (%d pushes over %d hops); benchmark is vacuous",
				st.PushedNodes, st.MaxHop+1)
		}
	}
}

func BenchmarkServeColdPushHeavyP1(b *testing.B) { benchServePushHeavy(b, 1) }

func BenchmarkServeThroughput1Worker(b *testing.B) { benchServeParallel(b, 1) }

func BenchmarkServeThroughputMaxWorkers(b *testing.B) {
	benchServeParallel(b, runtime.GOMAXPROCS(0))
}

func BenchmarkSweepOnly(b *testing.B) {
	g := benchGraph(b)
	res, err := hkpr.EstimateHKPR(g, 7, hkpr.MethodTEAPlus, benchOpts(g, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hkpr.Sweep(g, res.Scores)
	}
}
