package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hkpr"
	"hkpr/internal/chaos"
)

// The -perf mode tracks the repo's raw query-latency trajectory across PRs:
// for each core estimator it runs a Go benchmark (via testing.Benchmark) of
// cold queries on a generated walk-heavy PLC graph at each requested
// parallelism, measures the walk-phase share from the estimator's own Stats,
// and writes one machine-readable BENCH_<name>.json per estimator.  CI
// uploads these as artifacts so regressions are visible in diffs between
// runs.

// perfConfig parameterizes one -perf run.
type perfConfig struct {
	nodes       int
	edgesPer    int
	parallelism []int
	outDir      string
	// baselineDir, when non-empty, holds committed BENCH_<name>.json files
	// the fresh measurements are compared against; a point whose
	// allocs_per_op (or bytes_per_op) regresses by more than its factor
	// fails the run (after all files are written, so artifacts survive for
	// diffing).
	baselineDir string
	log         io.Writer
}

// allocsRegressionFactor is the allowed multiplicative slack between a
// baseline point's allocs_per_op and a fresh measurement before the -perf
// run fails.  Allocation counts are near-deterministic, but pool warm-up is
// amortized over the benchmark's iteration count, which varies by machine.
const allocsRegressionFactor = 2.0

// allocsRegressionFloor ignores regressions below this absolute count, so
// near-zero baselines (the whole point of the workspace hot path) don't turn
// a 5→11 allocs jitter into a CI failure.
const allocsRegressionFloor = 64

// bytesRegressionFactor is the allowed multiplicative slack between a
// baseline point's bytes_per_op and a fresh measurement.  Heap bytes track
// the flat score-vector representation (one support-sized slab per query);
// a >2x growth means a defensive copy or a map crept back into the hot path.
const bytesRegressionFactor = 2.0

// bytesRegressionFloor ignores byte regressions below this absolute growth
// (support sizes vary a little run to run; 64 KiB is far above that noise
// and far below any reintroduced O(support) copy on the bench graph).
const bytesRegressionFloor = 64 << 10

// perfPoint is one (estimator, parallelism) measurement.  For the batch
// entry, BatchK is the number of seeds per EstimateMany call and every
// per-op figure (ns, allocs, bytes) is per *query* — the batched call's cost
// divided by BatchK — so the regression gate and cross-k comparisons read the
// amortization directly.
type perfPoint struct {
	Parallelism    int     `json:"parallelism"`
	BatchK         int     `json:"batch_k,omitempty"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	QueriesPerSec  float64 `json:"queries_per_sec,omitempty"`
	WalkPhaseShare float64 `json:"walk_phase_share"`
	PushPhaseShare float64 `json:"push_phase_share"`
	RandomWalks    int64   `json:"random_walks"`
	WalkShards     int     `json:"walk_shards"`
	Iterations     int     `json:"iterations"`
	// Update-entry extras: batches a concurrent writer published during the
	// measurement, background compactions that ran, and the p99 of the
	// compaction publish pause (the lock-held window writers see).
	UpdatesApplied    int64 `json:"updates_applied,omitempty"`
	Compactions       int   `json:"compactions,omitempty"`
	CompactPauseP99Ns int64 `json:"compact_pause_p99_ns,omitempty"`
	// Soak-entry extras (BENCH_soak.json): client-observed outcome rates of
	// the deterministic chaos soak — the shed fraction of offered requests,
	// the fraction served in a degraded mode (stale or clamped), the engine's
	// execution-latency p99 under saturation, and the highest pressure tier
	// the overload controller reached.
	Requests     int64   `json:"requests,omitempty"`
	ShedRate     float64 `json:"shed_rate,omitempty"`
	DegradedRate float64 `json:"degraded_serve_rate,omitempty"`
	P99Ns        int64   `json:"p99_ns,omitempty"`
	MaxPressure  string  `json:"max_pressure,omitempty"`
	// Router-entry extras (BENCH_router.json): the replica tier's routing tax
	// and fault-recovery trajectory.  NsPerOp holds the routed cache-hit
	// latency; DirectNsPerOp the same query against a bare engine, so
	// RouterOverheadNs = routed − direct is the per-query cost of the ring
	// walk, health filtering and hedging machinery.  FailoverRecoveryNs is
	// crash-to-first-successful-answer on a seed the crashed replica owned;
	// RestabilizeNs is restart-to-routing-reconverged (the health loop
	// re-promoting the owner).  Hedged and PeerFills echo the router counters
	// so the entry proves both paths actually engaged.
	DirectNsPerOp      int64 `json:"direct_ns_per_op,omitempty"`
	RouterOverheadNs   int64 `json:"router_overhead_ns,omitempty"`
	FailoverRecoveryNs int64 `json:"failover_recovery_ns,omitempty"`
	RestabilizeNs      int64 `json:"restabilize_ns,omitempty"`
	Hedged             int64 `json:"hedged,omitempty"`
	PeerFills          int64 `json:"peer_fills,omitempty"`
}

// perfReport is the BENCH_<name>.json payload.
type perfReport struct {
	Name       string      `json:"name"`
	Graph      string      `json:"graph"`
	Nodes      int         `json:"nodes"`
	Edges      int64       `json:"edges"`
	Options    string      `json:"options"`
	Points     []perfPoint `json:"points"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Timestamp  string      `json:"timestamp"`
}

// perfMethods are the estimators tracked by -perf.  The file-name slug avoids
// the '+' that MethodTEAPlus carries.  Each method tweaks the shared options
// so the stage its parallelism points monitor actually dominates: TEA+ would
// otherwise early-terminate during its budgeted push (walk share 0% at every
// P), so a hop cap of 1 (tiny C) stops its push almost immediately; TEA gets
// a loose rmax for the same reason.  "teapush" is the push-phase counterpart:
// TEA at its default tight rmax is push-dominated, so it tracks the serial
// push.
var perfMethods = []struct {
	slug   string
	method hkpr.Method
	tune   func(hkpr.Options) hkpr.Options
}{
	{"teaplus", hkpr.MethodTEAPlus, func(o hkpr.Options) hkpr.Options { o.C = 1e-3; return o }},
	{"tea", hkpr.MethodTEA, func(o hkpr.Options) hkpr.Options { o.RmaxScale = 20; return o }},
	{"teapush", hkpr.MethodTEA, func(o hkpr.Options) hkpr.Options { return o }},
}

// runPerf executes the -perf mode and writes one JSON file per estimator
// (plus BENCH_serve.json for the full serving hot path).  With a baseline
// directory configured it then fails on allocs_per_op regressions.
func runPerf(cfg perfConfig) error {
	g, err := hkpr.GeneratePLC(cfg.nodes, cfg.edgesPer, 0.5, 13)
	if err != nil {
		return err
	}
	opts := hkpr.Options{
		T: 5, EpsRel: 0.5, Delta: 1 / float64(g.N()), FailureProb: 1e-6,
		Seed: 1,
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var regressions []error
	finish := func(rep perfReport) error {
		// Compare before writing: with -bench-dir and -perf-baseline pointing
		// at the same directory the fresh file would otherwise clobber the
		// baseline first and the gate would compare it against itself.
		if cfg.baselineDir != "" {
			if err := checkPerfBaseline(cfg.baselineDir, rep); err != nil {
				regressions = append(regressions, err)
			}
		}
		path := filepath.Join(cfg.outDir, "BENCH_"+rep.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	for _, m := range perfMethods {
		mOpts := m.tune(opts)
		rep := perfReport{
			Name:       m.slug,
			Graph:      fmt.Sprintf("plc-n%d-m%d", cfg.nodes, cfg.edgesPer),
			Nodes:      g.N(),
			Edges:      g.M(),
			Options:    fmt.Sprintf("t=%g eps=%g delta=%.3g rmax-scale=%g c=%g", mOpts.T, mOpts.EpsRel, mOpts.Delta, mOpts.RmaxScale, mOpts.C),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
		}
		for _, p := range cfg.parallelism {
			point, err := perfMeasure(g, m.method, mOpts, p)
			if err != nil {
				return fmt.Errorf("perf %s P=%d: %w", m.slug, p, err)
			}
			rep.Points = append(rep.Points, point)
			if cfg.log != nil {
				fmt.Fprintf(cfg.log, "perf %-8s P=%d  %.2f ms/op  %d allocs/op  walk-share %.0f%%  (%d iters)\n",
					m.slug, p, float64(point.NsPerOp)/1e6, point.AllocsPerOp, 100*point.WalkPhaseShare, point.Iterations)
			}
		}
		if err := finish(rep); err != nil {
			return err
		}
	}

	// The serve entry measures the full serving hot path — admission, CPU
	// gate, pooled workspace, estimator, result materialization — on the
	// same graph, with the result cache disabled so every iteration
	// executes.  Its allocs_per_op is the acceptance metric of the
	// zero-allocation workspace work.
	serveRep := perfReport{
		Name:       "serve",
		Graph:      fmt.Sprintf("plc-n%d-m%d", cfg.nodes, cfg.edgesPer),
		Nodes:      g.N(),
		Edges:      g.M(),
		Options:    fmt.Sprintf("t=%g eps=%g delta=%.3g method=tea nocache", opts.T, opts.EpsRel, opts.Delta),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, p := range cfg.parallelism {
		point, err := perfMeasureServe(g, opts, p)
		if err != nil {
			return fmt.Errorf("perf serve P=%d: %w", p, err)
		}
		serveRep.Points = append(serveRep.Points, point)
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, "perf %-8s P=%d  %.2f ms/op  %d allocs/op  (%d iters)\n",
				"serve", p, float64(point.NsPerOp)/1e6, point.AllocsPerOp, point.Iterations)
		}
	}
	if err := finish(serveRep); err != nil {
		return err
	}

	// The batch entry measures the multi-source amortization: EstimateMany
	// over k seeds at a time, serial, TEA (push-dominated at its default
	// tight rmax, so the shared frontier scan is what k amortizes).  The
	// k=1 point is the unbatched baseline — the single-query Estimate API a
	// client without a batching window issues — so queries/sec at k=8 vs
	// k=1 reads the end-to-end speedup of turning batching on.  Every
	// per-op figure is per query.
	batchRep := perfReport{
		Name:       "batch",
		Graph:      fmt.Sprintf("plc-n%d-m%d", cfg.nodes, cfg.edgesPer),
		Nodes:      g.N(),
		Edges:      g.M(),
		Options:    fmt.Sprintf("t=%g eps=%g delta=%.3g method=tea batched", opts.T, opts.EpsRel, opts.Delta),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, k := range []int{1, 8, 64} {
		point, err := perfMeasureBatch(g, opts, k)
		if err != nil {
			return fmt.Errorf("perf batch k=%d: %w", k, err)
		}
		batchRep.Points = append(batchRep.Points, point)
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, "perf %-8s k=%-2d %.2f ms/query  %d allocs/query  %.1f queries/sec  (%d iters)\n",
				"batch", k, float64(point.NsPerOp)/1e6, point.AllocsPerOp, point.QueriesPerSec, point.Iterations)
		}
	}
	if err := finish(batchRep); err != nil {
		return err
	}

	// The update entry measures the live-update serve path: sustained query
	// throughput through an engine over a Dynamic graph while a background
	// writer keeps publishing edge-toggle batches (each remove+add pair is two
	// epochs), with background compaction folding the delta overlay back into
	// CSR.  Its allocs_per_op guards the snapshot-resolution hot path, and
	// compact_pause_p99_ns tracks the writer-visible compaction pause.
	updateRep := perfReport{
		Name:       "update",
		Graph:      fmt.Sprintf("plc-n%d-m%d", cfg.nodes, cfg.edgesPer),
		Nodes:      g.N(),
		Edges:      g.M(),
		Options:    fmt.Sprintf("t=%g eps=%g delta=%.3g method=tea nocache live-updates", opts.T, opts.EpsRel, opts.Delta),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	point, err := perfMeasureUpdate(g, opts)
	if err != nil {
		return fmt.Errorf("perf update: %w", err)
	}
	updateRep.Points = append(updateRep.Points, point)
	if cfg.log != nil {
		fmt.Fprintf(cfg.log, "perf %-8s P=%d  %.2f ms/op  %d allocs/op  %.1f queries/sec  %d updates  %d compactions  pause-p99 %.2fms  (%d iters)\n",
			"update", point.Parallelism, float64(point.NsPerOp)/1e6, point.AllocsPerOp,
			point.QueriesPerSec, point.UpdatesApplied, point.Compactions,
			float64(point.CompactPauseP99Ns)/1e6, point.Iterations)
	}
	if err := finish(updateRep); err != nil {
		return err
	}

	// The soak entry runs the deterministic chaos harness: seeded 32-way
	// traffic against a 2-worker engine (better than 2x its admission
	// capacity) with concurrent update writers and injected execution stalls,
	// then records the overload-robustness trajectory — shed rate,
	// degraded-serve rate, and execution p99 under saturation.
	soakPoint, soakCfg, err := perfMeasureSoak()
	if err != nil {
		return fmt.Errorf("perf soak: %w", err)
	}
	soakRep := perfReport{
		Name:  "soak",
		Graph: fmt.Sprintf("powerlaw-n%d (chaos)", soakCfg.Nodes),
		Nodes: soakCfg.Nodes,
		Options: fmt.Sprintf("seed=%d clients=%d queries=%d writers=%d fault-every=%d",
			soakCfg.Seed, soakCfg.Clients, soakCfg.QueriesPerClient, soakCfg.Writers, soakCfg.FaultEvery),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Points:     []perfPoint{soakPoint},
	}
	if cfg.log != nil {
		fmt.Fprintf(cfg.log, "perf %-8s %d requests  shed %.3f  degraded %.3f  p99 %.2fms  max-pressure %s\n",
			"soak", soakPoint.Requests, soakPoint.ShedRate, soakPoint.DegradedRate,
			float64(soakPoint.P99Ns)/1e6, soakPoint.MaxPressure)
	}
	if err := finish(soakRep); err != nil {
		return err
	}

	// The router entry measures the replica tier: routed-vs-direct cache-hit
	// overhead, crash-to-answer failover recovery, and restart-to-reconverged
	// restabilization on a 3-replica router over the same graph.
	routerPoint, err := perfMeasureRouter(g, opts)
	if err != nil {
		return fmt.Errorf("perf router: %w", err)
	}
	routerRep := perfReport{
		Name:       "router",
		Graph:      fmt.Sprintf("plc-n%d-m%d", cfg.nodes, cfg.edgesPer),
		Nodes:      g.N(),
		Edges:      g.M(),
		Options:    fmt.Sprintf("t=%g eps=%g delta=%.3g method=tea replicas=3 routed-vs-direct", opts.T, opts.EpsRel, opts.Delta),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Points:     []perfPoint{routerPoint},
	}
	if cfg.log != nil {
		fmt.Fprintf(cfg.log, "perf %-8s routed %.1fµs/op  direct %.1fµs/op  overhead %.1fµs  failover %.2fms  restabilize %.2fms  hedged %d  peer-fills %d\n",
			"router", float64(routerPoint.NsPerOp)/1e3, float64(routerPoint.DirectNsPerOp)/1e3,
			float64(routerPoint.RouterOverheadNs)/1e3, float64(routerPoint.FailoverRecoveryNs)/1e6,
			float64(routerPoint.RestabilizeNs)/1e6, routerPoint.Hedged, routerPoint.PeerFills)
	}
	if err := finish(routerRep); err != nil {
		return err
	}

	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "perf regression:", r)
		}
		return fmt.Errorf("perf: %d regression(s) against baseline in %s", len(regressions), cfg.baselineDir)
	}
	return nil
}

// routerOverheadFactor / routerOverheadFloorNs gate the routed-vs-direct
// cache-hit overhead against baseline: the tax of the ring walk and hedging
// machinery is a few microseconds, so only a growth beyond the factor AND the
// absolute floor (well above scheduler jitter on a shared CI box) fails.
const routerOverheadFactor = 5.0
const routerOverheadFloorNs = 200_000 // 200µs

// routerRecoveryFactor / routerRecoveryFloorNs bound failover recovery and
// routing restabilization against baseline — loose, to catch a collapse (a
// recovery that waits out a full health interval instead of failing over
// inline), not jitter.
const routerRecoveryFactor = 5.0
const routerRecoveryFloorNs = 250_000_000 // 250ms

// soakShedRateSlack is the absolute shed-rate growth tolerated against the
// committed soak baseline before the gate fails: outcome rates vary with
// scheduling, but a jump beyond this means admission capacity or the
// degraded modes regressed.
const soakShedRateSlack = 0.25

// soakP99Factor bounds the saturated-execution p99 against baseline.  It is
// deliberately loose (CI boxes vary wildly); it exists to catch an
// order-of-magnitude collapse, not jitter.
const soakP99Factor = 5.0

// perfMeasureSoak runs the chaos soak at its default seeded configuration and
// flattens the report into one perf point.
func perfMeasureSoak() (perfPoint, chaos.Config, error) {
	cfg := chaos.Default(42)
	rep, err := chaos.Run(cfg)
	if err != nil {
		return perfPoint{}, cfg, err
	}
	if err := rep.Err(); err != nil {
		return perfPoint{}, cfg, err
	}
	meanNs := int64(0)
	if rep.Requests > 0 {
		meanNs = rep.Elapsed.Nanoseconds() / rep.Requests
	}
	return perfPoint{
		NsPerOp:        max64(meanNs, 1),
		QueriesPerSec:  float64(rep.Requests) / rep.Elapsed.Seconds(),
		Iterations:     int(rep.Requests),
		Requests:       rep.Requests,
		UpdatesApplied: rep.UpdatesApplied,
		ShedRate:       rep.ShedRate,
		DegradedRate:   rep.DegradedRate,
		P99Ns:          int64(rep.P99MS * 1e6),
		MaxPressure:    rep.MaxPressure,
	}, cfg, nil
}

// checkPerfBaseline compares a fresh report against the committed baseline
// of the same name, failing on a >allocsRegressionFactor allocs_per_op
// regression at any matching parallelism.  A missing baseline file is not an
// error (new benchmarks need a first commit).
func checkPerfBaseline(dir string, rep perfReport) error {
	path := filepath.Join(dir, "BENCH_"+rep.Name+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var base perfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	// Points are keyed by (parallelism, batch k): the batch entry holds
	// several k values at one parallelism.
	type pointKey struct{ parallelism, batchK int }
	baseByP := make(map[pointKey]perfPoint, len(base.Points))
	for _, p := range base.Points {
		baseByP[pointKey{p.Parallelism, p.BatchK}] = p
	}
	for _, p := range rep.Points {
		b, ok := baseByP[pointKey{p.Parallelism, p.BatchK}]
		if !ok {
			continue
		}
		limit := int64(float64(b.AllocsPerOp) * allocsRegressionFactor)
		if p.AllocsPerOp > limit && p.AllocsPerOp-b.AllocsPerOp > allocsRegressionFloor {
			return fmt.Errorf("%s P=%d k=%d: allocs_per_op %d exceeds %gx baseline %d",
				rep.Name, p.Parallelism, p.BatchK, p.AllocsPerOp, allocsRegressionFactor, b.AllocsPerOp)
		}
		byteLimit := int64(float64(b.BytesPerOp) * bytesRegressionFactor)
		if b.BytesPerOp > 0 && p.BytesPerOp > byteLimit && p.BytesPerOp-b.BytesPerOp > bytesRegressionFloor {
			return fmt.Errorf("%s P=%d k=%d: bytes_per_op %d exceeds %gx baseline %d",
				rep.Name, p.Parallelism, p.BatchK, p.BytesPerOp, bytesRegressionFactor, b.BytesPerOp)
		}
		// Soak-entry gates: the overload-robustness trajectory.  Shed rate may
		// only drift within an absolute slack, the degraded machinery must not
		// go inert (a baseline that served degraded responses but a fresh run
		// that served none means stale/clamped modes stopped engaging), and
		// the saturated p99 must stay within a loose factor.
		if rep.Name == "soak" {
			if p.ShedRate > b.ShedRate+soakShedRateSlack {
				return fmt.Errorf("soak: shed_rate %.3f exceeds baseline %.3f + %.2f slack",
					p.ShedRate, b.ShedRate, soakShedRateSlack)
			}
			if b.DegradedRate > 0.01 && p.DegradedRate == 0 {
				return fmt.Errorf("soak: degraded_serve_rate fell to 0 (baseline %.3f): stale/clamped modes no longer engage",
					b.DegradedRate)
			}
			if b.P99Ns > 0 && p.P99Ns > int64(float64(b.P99Ns)*soakP99Factor) {
				return fmt.Errorf("soak: saturated p99 %.2fms exceeds %gx baseline %.2fms",
					float64(p.P99Ns)/1e6, soakP99Factor, float64(b.P99Ns)/1e6)
			}
		}
		// Router-entry gates: the routing tax and the fault-recovery times
		// must not collapse, and the paths the entry exists to prove (hedging,
		// peer fills) must keep engaging.
		if rep.Name == "router" {
			if b.RouterOverheadNs > 0 && p.RouterOverheadNs > int64(float64(b.RouterOverheadNs)*routerOverheadFactor) &&
				p.RouterOverheadNs-b.RouterOverheadNs > routerOverheadFloorNs {
				return fmt.Errorf("router: overhead %.1fµs exceeds %gx baseline %.1fµs",
					float64(p.RouterOverheadNs)/1e3, routerOverheadFactor, float64(b.RouterOverheadNs)/1e3)
			}
			for _, rec := range []struct {
				label     string
				base, cur int64
			}{
				{"failover_recovery_ns", b.FailoverRecoveryNs, p.FailoverRecoveryNs},
				{"restabilize_ns", b.RestabilizeNs, p.RestabilizeNs},
			} {
				if rec.base > 0 && rec.cur > int64(float64(rec.base)*routerRecoveryFactor) &&
					rec.cur-rec.base > routerRecoveryFloorNs {
					return fmt.Errorf("router: %s %.2fms exceeds %gx baseline %.2fms",
						rec.label, float64(rec.cur)/1e6, routerRecoveryFactor, float64(rec.base)/1e6)
				}
			}
			if b.Hedged > 0 && p.Hedged == 0 {
				return fmt.Errorf("router: hedging went inert (baseline hedged %d, fresh 0)", b.Hedged)
			}
			if b.PeerFills > 0 && p.PeerFills == 0 {
				return fmt.Errorf("router: peer cache fills went inert (baseline %d, fresh 0)", b.PeerFills)
			}
		}
	}
	return nil
}

// perfMeasureBatch benchmarks one batch size, reporting per-query cost (the
// batched call's cost divided by k).  k=1 runs the single-query Estimate API
// — the unbatched baseline — while k>1 runs EstimateMany.
func perfMeasureBatch(g *hkpr.Graph, opts hkpr.Options, k int) (perfPoint, error) {
	opts.Parallelism = 1
	c, err := hkpr.NewClustererWithMethod(g, opts, hkpr.MethodTEA)
	if err != nil {
		return perfPoint{}, err
	}
	seeds := make([]hkpr.NodeID, k)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range seeds {
				seeds[j] = hkpr.NodeID((i*k + j) % g.N())
			}
			if k == 1 {
				if _, err := c.Estimate(seeds[0], hkpr.Options{}); err != nil {
					benchErr = err
					b.FailNow()
				}
				continue
			}
			_, errs, err := c.EstimateMany(seeds, hkpr.Options{})
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			for _, e := range errs {
				if e != nil {
					benchErr = e
					b.FailNow()
				}
			}
		}
	})
	if benchErr != nil {
		return perfPoint{}, benchErr
	}
	if res.N == 0 {
		return perfPoint{}, fmt.Errorf("benchmark did not run")
	}
	perQueryNs := res.NsPerOp() / int64(k)
	if perQueryNs == 0 {
		perQueryNs = 1
	}
	return perfPoint{
		Parallelism:   1,
		BatchK:        k,
		NsPerOp:       perQueryNs,
		AllocsPerOp:   res.AllocsPerOp() / int64(k),
		BytesPerOp:    res.AllocedBytesPerOp() / int64(k),
		QueriesPerSec: 1e9 / float64(perQueryNs),
		Iterations:    res.N,
	}, nil
}

// perfMeasureUpdate benchmarks uncached serial queries through an engine over
// a Dynamic graph while a background writer toggles base edges (one remove
// batch, one re-add batch, a short breath) through Engine.ApplyUpdates.  The
// small compaction threshold forces frequent background compactions so their
// publish pauses are actually sampled.
func perfMeasureUpdate(g *hkpr.Graph, opts hkpr.Options) (perfPoint, error) {
	// Threshold is low enough that even a GOMAXPROCS=1 CI box — where the
	// query worker crowds out the writer goroutine — accumulates several
	// compactions during the ~1s measurement.
	d := hkpr.NewDynamic(g, hkpr.DynamicOptions{CompactThreshold: 32})
	eng, err := hkpr.NewEngine(d, opts, hkpr.EngineConfig{
		Workers: 1, CacheBytes: -1, Parallelism: 1,
	})
	if err != nil {
		return perfPoint{}, err
	}
	defer eng.Close()
	ctx := context.Background()
	req := hkpr.ServeRequest{Seed: 7, Method: "tea", NoCache: true}
	if _, err := eng.Do(ctx, req); err != nil {
		return perfPoint{}, err
	}

	// Toggle edges spread across the graph; each stays absent only between
	// its own remove and re-add, so every batch validates.
	var toggles [][2]hkpr.NodeID
	snap := g.Snapshot()
	for u := hkpr.NodeID(0); u < hkpr.NodeID(g.N()) && len(toggles) < 32; u += 101 {
		if nbrs := snap.Neighbors(u); len(nbrs) > 1 {
			toggles = append(toggles, [2]hkpr.NodeID{u, nbrs[0]})
		}
	}
	if len(toggles) == 0 {
		return perfPoint{}, fmt.Errorf("no toggleable edges found")
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var updates int64
	var updateErr error
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := toggles[i%len(toggles)]
			if _, err := eng.ApplyUpdates(hkpr.UpdateBatch{RemoveEdges: [][2]hkpr.NodeID{e}}); err != nil {
				updateErr = err
				return
			}
			if _, err := eng.ApplyUpdates(hkpr.UpdateBatch{AddEdges: [][2]hkpr.NodeID{e}}); err != nil {
				updateErr = err
				return
			}
			updates += 2
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := req
			r.Seed = hkpr.NodeID(i % g.N())
			if _, err := eng.Do(ctx, r); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	close(stop)
	<-done
	d.WaitCompaction()
	if benchErr != nil {
		return perfPoint{}, benchErr
	}
	if updateErr != nil {
		return perfPoint{}, fmt.Errorf("background writer: %w", updateErr)
	}
	if res.N == 0 {
		return perfPoint{}, fmt.Errorf("benchmark did not run")
	}
	pauses := d.CompactionPauses()
	return perfPoint{
		Parallelism:       1,
		NsPerOp:           res.NsPerOp(),
		AllocsPerOp:       res.AllocsPerOp(),
		BytesPerOp:        res.AllocedBytesPerOp(),
		QueriesPerSec:     1e9 / float64(max64(res.NsPerOp(), 1)),
		Iterations:        res.N,
		UpdatesApplied:    updates,
		Compactions:       len(pauses),
		CompactPauseP99Ns: durationP99(pauses).Nanoseconds(),
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// durationP99 returns the 99th-percentile entry (nearest-rank) of ds.
func durationP99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// perfMeasureServe benchmarks uncached queries through a serving engine at
// one per-query parallelism.
func perfMeasureServe(g *hkpr.Graph, opts hkpr.Options, parallelism int) (perfPoint, error) {
	eng, err := hkpr.NewEngine(g, opts, hkpr.EngineConfig{
		Workers: 1, CacheBytes: -1, Parallelism: parallelism,
	})
	if err != nil {
		return perfPoint{}, err
	}
	defer eng.Close()
	ctx := context.Background()
	req := hkpr.ServeRequest{Seed: 7, Method: "tea", NoCache: true}

	probe, err := eng.Do(ctx, req)
	if err != nil {
		return perfPoint{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := req
			r.Seed = hkpr.NodeID(i % g.N())
			if _, err := eng.Do(ctx, r); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return perfPoint{}, benchErr
	}
	if res.N == 0 {
		return perfPoint{}, fmt.Errorf("benchmark did not run")
	}
	return perfPoint{
		Parallelism: parallelism,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		RandomWalks: probe.Result.Stats.RandomWalks,
		WalkShards:  probe.Result.Stats.WalkShards,
		Iterations:  res.N,
	}, nil
}

// perfMeasure benchmarks one estimator at one parallelism and extracts the
// walk-phase share from a representative query's Stats.
func perfMeasure(g *hkpr.Graph, method hkpr.Method, opts hkpr.Options, parallelism int) (perfPoint, error) {
	opts.Parallelism = parallelism
	c, err := hkpr.NewClustererWithMethod(g, opts, method)
	if err != nil {
		return perfPoint{}, err
	}

	// One instrumented query for the cost breakdown (outside the timing).
	probe, err := c.Estimate(7, hkpr.Options{})
	if err != nil {
		return perfPoint{}, err
	}
	walkShare, pushShare := 0.0, 0.0
	if total := probe.Stats.PushTime + probe.Stats.WalkTime; total > 0 {
		walkShare = float64(probe.Stats.WalkTime) / float64(total)
		pushShare = float64(probe.Stats.PushTime) / float64(total)
	}

	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Estimate(hkpr.NodeID(i%g.N()), hkpr.Options{}); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return perfPoint{}, benchErr
	}
	if res.N == 0 {
		return perfPoint{}, fmt.Errorf("benchmark did not run")
	}
	return perfPoint{
		Parallelism:    parallelism,
		NsPerOp:        res.NsPerOp(),
		AllocsPerOp:    res.AllocsPerOp(),
		BytesPerOp:     res.AllocedBytesPerOp(),
		WalkPhaseShare: walkShare,
		PushPhaseShare: pushShare,
		RandomWalks:    probe.Stats.RandomWalks,
		WalkShards:     probe.Stats.WalkShards,
		Iterations:     res.N,
	}, nil
}

// parseParallelismList parses a comma-separated list of parallelism values.
func parseParallelismList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad parallelism value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty parallelism list")
	}
	return out, nil
}
