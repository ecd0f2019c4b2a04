package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"hkpr"
)

// phaseResult is one measured window of an HTTP workload.
type phaseResult struct {
	queries []query
	window  time.Duration // the measured window asked for
	wall    time.Duration // from its start to the last response
	updates []update
	records map[string]serverRecord // update records read from /debug/queries
}

// httpWorkload describes one HTTP workload: its request parameters, its
// untimed warm-up and how it drives one measured window.
type httpWorkload struct {
	params  string
	warm    func(s *server) ([]query, time.Duration)
	measure func(s *server, phase int, params string, window time.Duration) phaseResult
}

func runExplore(cfg *config, g *benchGraph, graphPath string, rep *report) outcome {
	rank, z := exploreRanking(datasetSeed, g.n), newZipf(g.n, zipfExponent)
	streams := make([]*exploreStream, sessions)
	for i := range streams {
		streams[i] = newExploreStream(cfg.seed, rank, z, i)
	}
	sources := func(limit int) []seedSource {
		out := make([]seedSource, sessions)
		for i, st := range streams {
			out[i] = limited(func() (int32, bool) { return st.next(), true }, limit)
		}
		return out
	}
	return runHTTP(cfg, g, graphPath, rep, httpWorkload{
		params: "&topk=10",
		warm: func(s *server) ([]query, time.Duration) {
			return closedLoop(s, g, sources(exploreWarmup), "&topk=10", time.Hour)
		},
		measure: func(s *server, _ int, params string, window time.Duration) phaseResult {
			qs, wall := closedLoop(s, g, sources(-1), params, window)
			return phaseResult{queries: qs, window: window, wall: wall}
		},
	})
}

func runCold(cfg *config, g *benchGraph, graphPath string, rep *report) outcome {
	perm := coldPermutation(cfg.seed, g.n)
	sources := func(phase, limit int) []seedSource {
		out := make([]seedSource, sessions)
		for i := range out {
			out[i] = limited(newColdStream(perm, i, phase).next, limit)
		}
		return out
	}
	return runHTTP(cfg, g, graphPath, rep, httpWorkload{
		params: "&nocache=1",
		warm: func(s *server) ([]query, time.Duration) {
			return closedLoop(s, g, sources(phaseWarm, coldWarmup), "&nocache=1", time.Hour)
		},
		measure: func(s *server, phase int, params string, window time.Duration) phaseResult {
			qs, wall := closedLoop(s, g, sources(phase, -1), params, window)
			return phaseResult{queries: qs, window: window, wall: wall}
		},
	})
}

func runChurn(cfg *config, g *benchGraph, graphPath string, rep *report) outcome {
	rank, z := exploreRanking(datasetSeed, g.n), newZipf(g.n, zipfExponent)
	st := newExploreStream(cfg.seed, rank, z, 0)
	reader := func(limit int) []seedSource {
		return []seedSource{limited(func() (int32, bool) { return st.next(), true }, limit)}
	}
	posts := 0 // posts so far; removals and re-additions alternate across phases
	return runHTTP(cfg, g, graphPath, rep, httpWorkload{
		params: "&topk=10",
		warm: func(s *server) ([]query, time.Duration) {
			return closedLoop(s, g, reader(sessions*exploreWarmup), "&topk=10", time.Hour)
		},
		measure: func(s *server, phase int, params string, window time.Duration) phaseResult {
			res := phaseResult{window: window, records: map[string]serverRecord{}}
			// One update per readsPerUpdate reads.  The buffer holds every
			// trigger a window can produce, so the reader never waits for
			// the writer.
			triggers := make(chan time.Time, 1<<14)
			reads := 0
			next := reader(-1)[0]
			counted := func() (int32, bool) {
				if reads++; reads%readsPerUpdate == 0 {
					triggers <- time.Now()
				}
				return next()
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				res.updates = writer(s, datasetSeed, g, posts, triggers, phase == phaseTraced, res.records)
			}()
			res.queries, res.wall = closedLoop(s, g, []seedSource{counted}, params, window)
			close(triggers)
			<-done
			posts += len(res.updates)
			return res
		},
	})
}

// limited ends a source after n seeds; n < 0 leaves it unbounded.
func limited(next seedSource, n int) seedSource {
	return func() (int32, bool) {
		if n == 0 {
			return 0, false
		}
		n--
		return next()
	}
}

func runHTTP(cfg *config, g *benchGraph, graphPath string, rep *report, w httpWorkload) outcome {
	var out outcome
	bin := filepath.Join(cfg.root, ".bench_build", "hkprserver")
	if err := buildServer(cfg.root, bin); err != nil {
		out.fail("%v", err)
		return out
	}
	cfg.step("hkprserver built")
	refSeeds := referenceSeeds(cfg.seed, g.n)
	refs := exactReferences(g, refSeeds)
	cfg.step("exact references computed")

	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		s, err := startServer(bin, graphPath, filepath.Join(cfg.work, "server"+strconv.Itoa(i)+".log"))
		if err != nil {
			out.fail("%v", err)
			return out
		}
		setups = append(setups, s.setup.Seconds())
		if i+1 < setupReps {
			s.stop()
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	rep.set("setup_s", median(setups), len(setups))
	cfg.step("server set up")

	// Correctness gate on the reference seeds; these are also the run's
	// first (untimed) executions.
	var chk refCheck
	for i, s := range refSeeds {
		q := clusterQuery(srv, g, s, "&topk=10&nocache=1")
		if q.err != "" {
			out.fail("reference query: %s", q.err)
			continue
		}
		chk.check(s, q.reply.Scores, refs[i], 1/float64(g.n))
	}
	reportRefCheck(&out, &chk, len(refSeeds))

	warm, warmWall := w.warm(srv)
	hits := 0
	for _, q := range warm {
		if q.err != "" {
			out.fail("warm-up: %s", q.err)
		}
		if q.reply.Cached {
			hits++
		}
	}
	fmt.Printf("warm-up: %d untimed requests in %.2fs (%d cache hits)\n", len(warm), warmWall.Seconds(), hits)

	cfg.step("warm-up done")
	window := cfg.window()
	untraced := w.measure(srv, phaseMeasure, w.params, window)
	gatePhase(&out, untraced)
	reportHTTP(rep, untraced, cfg.trace)

	var traced phaseResult
	var before, after serveStats
	if cfg.trace {
		if err := srv.getJSON("/stats", &before); err != nil {
			out.fail("%v", err)
		}
		traced = w.measure(srv, phaseTraced, w.params+"&trace=1", window)
		if err := srv.getJSON("/stats", &after); err != nil {
			out.fail("%v", err)
		}
		gatePhase(&out, traced)
	}

	checks, violations, err := srv.invariantCounters()
	switch {
	case err != nil:
		out.fail("%v", err)
	case violations != 0:
		out.fail("hkpr_serve_invariant_violations_total = %g (want 0)", violations)
	case checks == 0:
		out.fail("hkpr_serve_invariant_checks_total = 0: the invariant audit never ran")
	}
	fmt.Printf("invariants: %g checks, %g violations\n", checks, violations)
	if rss, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		out.fail("reading the server's peak RSS: %v", err)
	} else {
		rep.set("rss_mb", rss, 1)
	}
	srv.stop()
	stopped = true
	cfg.step("measured and stopped")

	if cfg.trace {
		perLayerHTTP(&out, rep, untraced, traced, before, after)
		if err := timeSetupLayers(graphPath, rep); err != nil {
			out.fail("%v", err)
		}
	}
	return out
}

func reportRefCheck(out *outcome, chk *refCheck, seeds int) {
	fmt.Printf("reference check: %d seeds, %d top-10 entries, %d with ρ/d > δ, %d violations, max relative error %.4f\n",
		seeds, chk.entries, chk.guarded, chk.violations, chk.maxRelErr)
	if chk.violations > 0 {
		out.fail("Definition 1: %d violations; first: %s", chk.violations, chk.firstBad)
	}
}

// gatePhase counts a measured window's operations and fails the run on any
// failed query or update.
func gatePhase(out *outcome, p phaseResult) {
	for _, q := range p.queries {
		out.attempted++
		if q.err != "" {
			out.failed++
			out.fail("query: %s", q.err)
		}
	}
	for _, u := range p.updates {
		out.attempted++
		if u.err != "" {
			out.failed++
			out.fail("%s", u.err)
		}
	}
}

// reportHTTP sets the end-to-end metrics of an untraced HTTP window, timed
// at the client.
func reportHTTP(rep *report, p phaseResult, traced bool) {
	var rts, f1s, conds []float64
	var done []time.Duration
	hits, seedless := 0, 0
	for _, q := range p.queries {
		if q.err != "" {
			continue
		}
		rts = append(rts, ms(q.rt))
		done = append(done, q.done)
		if q.reply.Cached {
			hits++
		}
		if q.executed() {
			f1s = append(f1s, q.f1)
			conds = append(conds, q.reply.Conductance)
			if q.seedless() {
				seedless++
			}
		}
	}
	rep.set("qps", medianRate(done, p.window), len(rts))
	p50, _ := percentile(rts, 0.50)
	p90, b90 := percentile(rts, 0.90)
	p99, b99 := percentile(rts, 0.99)
	rep.set("p50_ms", p50, len(rts))
	rep.set("p90_ms", p90, len(rts))
	rep.set("p99_ms", p99, len(rts))
	rep.set("f1", mean(f1s), len(f1s))
	rep.set("conductance", mean(conds), len(conds))
	fmt.Printf("untraced window: %d queries in %.2fs, %d cache hits (%.3f), %d executions (%d clusters without their seed); p90 has %d samples beyond, p99 %d\n",
		len(rts), p.wall.Seconds(), hits, float64(hits)/float64(max(len(rts), 1)), len(f1s), seedless, b90, b99)
	if len(p.updates) > 0 {
		var urts []float64
		var late time.Duration
		for _, u := range p.updates {
			if u.err == "" {
				urts = append(urts, ms(u.rt))
			}
			late = max(late, u.late)
		}
		u50, _ := percentile(urts, 0.50)
		u90, ub := percentile(urts, 0.90)
		rep.set("update_p50_ms", u50, len(urts))
		rep.set("update_p90_ms", u90, len(urts))
		fmt.Printf("updates: %d posts, p50 %.3f ms, p90 %.3f ms (%d samples beyond), generator at most %.3f ms late\n",
			len(urts), u50, u90, ub, ms(late))
	}
	if !traced {
		fmt.Printf("  %-28s %14.6g %-6s n=%d (%d beyond)\n", "p99_ms", p99, "ms", len(rts), b99)
	}
}

// countPrefix bounds the requests per session whose execution counts feed
// core.push_ops, core.walks and core.early_term_ratio.  On cold (and batch)
// that prefix is a fixed seed list, so the counts repeat exactly for the
// same code.
const countPrefix = 60

// perLayerHTTP sets the per-layer metrics of a traced HTTP window.
func perLayerHTTP(out *outcome, rep *report, untraced, traced phaseResult, before, after serveStats) {
	l := newLedger()
	var hits, coalesced, early, walks, pushes, counted int
	var sizes, untracedBytes []float64
	for _, q := range untraced.queries {
		untracedBytes = append(untracedBytes, float64(q.bytes))
	}
	for _, q := range traced.queries {
		if q.err != "" {
			continue
		}
		if q.reply.Trace == nil {
			out.fail("traced query for seed %d returned no trace", q.seed)
			continue
		}
		l.add(q.rt, q.reply.Trace)
		switch {
		case q.reply.Cached:
			hits++
		case q.reply.Coalesced:
			coalesced++
		default:
			sizes = append(sizes, float64(len(q.reply.Cluster)))
			if q.index < countPrefix {
				counted++
				pushes += int(q.reply.Pushes)
				walks += int(q.reply.Walks)
				if st := q.reply.Trace.Stats; st != nil && st.EarlyTermination {
					early++
				}
			}
		}
	}
	if l.overTotal > 0 {
		out.fail("ledger: %d records whose stages exceed total_ns; first: %s", l.overTotal, l.firstOver)
	}
	gap := l.write(rep.w)
	n := l.requests
	rep.set("ledger.round_trip_ms", l.meanMS(l.roundTrip), n)
	rep.set("hkprserver.http_ms", l.meanMS(l.http), n)
	rep.set("hkprserver.resp_bytes", mean(untracedBytes), len(untracedBytes))
	rep.set("serve.queue_wait_ms", l.meanMS(l.stages["queue_wait"]), n)
	rep.set("serve.cache_lookup_us", 1000*l.meanMS(l.stages["cache_lookup"]), n)
	rep.set("serve.workspace_us", 1000*l.meanMS(l.stages["workspace"]), n)
	rep.set("serve.render_ms", l.meanMS(l.stages["render"]), n)
	rep.set("serve.unattributed_ms", l.meanMS(l.unattributed), n)
	rep.set("core.push_ms", l.meanMS(l.stages["push"]), n)
	rep.set("core.walk_ms", l.meanMS(l.stages["walk"]), n)
	rep.set("core.merge_ms", l.meanMS(l.stages["merge"]), n)
	rep.set("cluster.sweep_ms", l.meanMS(l.stages["sweep"]), n)
	rep.set("serve.hit_ratio", ratio(hits, n), n)
	rep.set("serve.coalesced_ratio", ratio(coalesced, n), n)
	rep.set("cluster.size", mean(sizes), len(sizes))
	rep.set("core.push_ops", ratio(pushes, counted), counted)
	rep.set("core.walks", ratio(walks, counted), counted)
	rep.set("core.early_term_ratio", ratio(early, counted), counted)
	if gap > 1e-6 || gap < -1e-6 {
		out.fail("ledger: layer self times and remainder miss the mean round trip by %.3g ms", gap)
	}

	s0, s1 := before.Serving, after.Serving
	rep.set("serve.cache_entries", float64(s1.CacheEntries), 1)
	if s1.CacheEntries > 0 {
		rep.set("serve.entry_kb", float64(s1.CacheBytes)/float64(s1.CacheEntries)/1024, int(s1.CacheEntries))
	}
	execs := int(s1.Executions - s0.Executions)
	rep.set("serve.stale_discard_ratio", ratio(int(s1.CacheInvalidatedStale-s0.CacheInvalidatedStale), execs), execs)
	upd := int(s1.UpdatesApplied - s0.UpdatesApplied)
	rep.set("serve.radius_invalidations", ratio(int(s1.CacheInvalidatedRadius-s0.CacheInvalidatedRadius), upd), upd)

	rep.set("trace.qps_ratio", medianRate(completions(traced), traced.window)/medianRate(completions(untraced), untraced.window), n)

	if len(traced.updates) > 0 {
		var elapsed []float64
		for _, u := range traced.updates {
			if u.err == "" {
				elapsed = append(elapsed, float64(u.elapsedNS)/1e6)
			}
		}
		rep.set("serve.update_ms", mean(elapsed), len(elapsed))
		var apply, inval []float64
		for _, r := range traced.records {
			for _, st := range r.Stages {
				switch st.Stage {
				case "update_apply":
					apply = append(apply, float64(st.DurationNS)/1e6)
				case "cache_invalidate":
					inval = append(inval, float64(st.DurationNS)/1e6)
				}
			}
		}
		rep.set("graph.update_apply_ms", mean(apply), len(apply))
		rep.set("serve.invalidate_ms", mean(inval), len(inval))
		if len(apply) < len(elapsed) {
			fmt.Printf("note: read %d of %d update records from /debug/queries\n", len(apply), len(elapsed))
		}
	}
}

// qpsBin is the bin width of the throughput median.
const qpsBin = 2 * time.Second

// medianRate is the median over consecutive qpsBin bins of the window of the
// completions per second.  A popular seed whose result is expensive and
// leaves the cache (a hub) slows a closed loop only while it is popular; the
// median keeps one such stretch from setting a whole run's throughput.
func medianRate(done []time.Duration, window time.Duration) float64 {
	bins := int(window / qpsBin)
	if bins < 1 {
		return float64(len(done)) / window.Seconds()
	}
	counts := make([]float64, bins)
	for _, d := range done {
		if i := int(d / qpsBin); i < bins {
			counts[i]++
		}
	}
	return median(counts) / qpsBin.Seconds()
}

func completions(p phaseResult) []time.Duration {
	var out []time.Duration
	for _, q := range p.queries {
		if q.err == "" {
			out = append(out, q.done)
		}
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timeSetupLayers times the two halves of the server's set-up in process,
// on the same file: hkpr.LoadEdgeListFile, then hkpr.NewEngine over the
// Dynamic wrapper hkprserver serves.  Each is the median of setupReps.
func timeSetupLayers(graphPath string, rep *report) error {
	var loads, builds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		g, err := hkpr.LoadEdgeListFile(graphPath)
		if err != nil {
			return fmt.Errorf("loading the graph in process: %w", err)
		}
		loads = append(loads, time.Since(start).Seconds())
		start = time.Now()
		eng, err := hkpr.NewEngine(hkpr.NewDynamic(g, hkpr.DynamicOptions{}), hkpr.Options{}, hkpr.EngineConfig{})
		if err != nil {
			return fmt.Errorf("building the engine in process: %w", err)
		}
		builds = append(builds, time.Since(start).Seconds())
		eng.Close()
	}
	rep.set("graph.load_s", median(loads), len(loads))
	rep.set("serve.engine_build_s", median(builds), len(builds))
	return nil
}
