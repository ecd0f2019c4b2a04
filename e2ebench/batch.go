package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"time"

	"hkpr"
)

// The batch workload runs in a child process, so that its set-up time and
// peak RSS are those of a process that only loads the graph and serves the
// batches, as hkprserver's are on the HTTP workloads.  The parent sends a
// batchPlan on the child's stdin and reads a batchReport from its stdout.

type batchPlan struct {
	Seed      uint64  `json:"seed"`
	SetupOnly bool    `json:"setup_only"`
	Trace     bool    `json:"trace"`
	WindowNS  int64   `json:"window_ns"`
	Community []int32 `json:"community"` // planted community per node
}

// batchSeedResult is one clustered seed.
type batchSeedResult struct {
	Failed      bool    `json:"failed"`
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
	F1          float64 `json:"f1"`
	PushNS      int64   `json:"push_ns"`
	WalkNS      int64   `json:"walk_ns"`
	MergeNS     int64   `json:"merge_ns"`
	SweepNS     int64   `json:"sweep_ns"`
	Pushes      int64   `json:"pushes"`
	Walks       int64   `json:"walks"`
	Early       bool    `json:"early"`
	Seedless    bool    `json:"seedless"`
	Counted     bool    `json:"counted"` // in the fixed prefix that feeds the counts
}

// batchCall is one timed call over one seed list.
type batchCall struct {
	NS         int64 `json:"ns"`
	EstimateNS int64 `json:"estimate_ns,omitempty"`
	SweepNS    int64 `json:"sweep_ns,omitempty"`
}

type batchPhase struct {
	WallNS int64             `json:"wall_ns"`
	Calls  []batchCall       `json:"calls"`
	Seeds  []batchSeedResult `json:"seeds"`
}

type batchReport struct {
	Nodes     int            `json:"nodes"`
	SetupNS   int64          `json:"setup_ns"`
	RSSMiB    float64        `json:"rss_mib"`
	Reference [][]scoredNode `json:"reference"`
	Untraced  batchPhase     `json:"untraced"`
	Traced    *batchPhase    `json:"traced,omitempty"`
	Problems  []string       `json:"problems,omitempty"`
}

// batchCountCalls is how many calls of the traced window feed the execution
// counts: a fixed seed list, so the counts repeat exactly for the same code.
const batchCountCalls = 4

// batchChild is the library process of the batch workload.
func batchChild(graphPath string) int {
	var plan batchPlan
	if err := json.NewDecoder(os.Stdin).Decode(&plan); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench batch child: reading the plan:", err)
		return 2
	}
	rep, err := serveBatches(graphPath, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench batch child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench batch child:", err)
		return 1
	}
	return 0
}

func serveBatches(graphPath string, plan batchPlan) (*batchReport, error) {
	start := time.Now()
	g, err := hkpr.LoadEdgeListFile(graphPath)
	if err != nil {
		return nil, err
	}
	c, err := hkpr.NewClustererWithMethod(g, hkpr.Options{}, hkpr.MethodTEA)
	if err != nil {
		return nil, err
	}
	rep := &batchReport{Nodes: g.N(), SetupNS: int64(time.Since(start))}
	if plan.SetupOnly {
		return rep, nil
	}
	if len(plan.Community) != g.N() {
		return nil, fmt.Errorf("plan has %d community entries for %d nodes", len(plan.Community), g.N())
	}
	bg := &benchGraph{n: g.N(), community: plan.Community}
	for v, comm := range plan.Community {
		for int(comm) >= len(bg.members) {
			bg.members = append(bg.members, nil)
		}
		bg.members[comm] = append(bg.members[comm], int32(v))
	}
	seedResult := func(seed int32, lc *hkpr.LocalCluster, err error) batchSeedResult {
		var r batchSeedResult
		cluster := make([]int32, 0)
		if err == nil {
			for _, v := range lc.Cluster {
				cluster = append(cluster, int32(v))
			}
			r.Size, r.Conductance = len(cluster), lc.Conductance
			st := lc.HKPR.Stats
			r.PushNS, r.WalkNS, r.MergeNS = int64(st.PushTime), int64(st.WalkTime), int64(st.MergeTime)
			r.Pushes, r.Walks, r.Early = st.PushOperations, st.RandomWalks, st.EarlyTermination
		}
		if err == nil {
			if msg := checkCluster(g.N(), seed, cluster, r.Conductance); msg != "" {
				err = errors.New(msg)
			}
		}
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("seed %d: %v", seed, err))
			r.Failed = true
			return r
		}
		r.F1 = f1Score(bg, cluster, seed)
		r.Seedless = !slices.Contains(cluster, seed)
		return r
	}
	toNodes := func(seeds []int32) []hkpr.NodeID {
		out := make([]hkpr.NodeID, len(seeds))
		for i, s := range seeds {
			out[i] = hkpr.NodeID(s)
		}
		return out
	}

	// Untimed warm-up, which is also the correctness check's input: the
	// reference seeds as one batch.
	ref := referenceSeeds(plan.Seed, g.N())
	for i, item := range c.LocalClusterBatch(toNodes(ref), 2) {
		seedResult(ref[i], item.Cluster, item.Err)
		var top []scoredNode
		if item.Err == nil {
			for _, e := range hkpr.TopK(g, item.Cluster.HKPR, 10) {
				top = append(top, scoredNode{Node: int32(e.Node), Score: e.Score})
			}
		}
		rep.Reference = append(rep.Reference, top)
	}

	// Each call starts from a collected heap, so that the peak RSS does not
	// hinge on where the previous call left the garbage collector's pacing
	// (without this it read either about 600 or about 780 MiB).
	window := time.Duration(plan.WindowNS)
	phaseStart := time.Now()
	for j := 0; time.Since(phaseStart) < window; j++ {
		seeds := batchList(datasetSeed, g.N(), phaseMeasure, j)
		runtime.GC()
		callStart := time.Now()
		items := c.LocalClusterBatch(toNodes(seeds), 2)
		rep.Untraced.Calls = append(rep.Untraced.Calls, batchCall{NS: int64(time.Since(callStart))})
		for i, item := range items {
			rep.Untraced.Seeds = append(rep.Untraced.Seeds, seedResult(seeds[i], item.Cluster, item.Err))
		}
	}
	rep.Untraced.WallNS = int64(time.Since(phaseStart))

	if plan.Trace {
		// LocalClusterBatch split into its public parts, each timed:
		// EstimateMany with Parallelism 2, then hkpr.Sweep on 2 goroutines.
		tr := &batchPhase{}
		phaseStart = time.Now()
		for j := 0; time.Since(phaseStart) < window; j++ {
			seeds := batchList(datasetSeed, g.N(), phaseTraced, j)
			runtime.GC()
			callStart := time.Now()
			results, errs, err := c.EstimateMany(toNodes(seeds), hkpr.Options{Parallelism: 2})
			estD := time.Since(callStart)
			if err != nil {
				return nil, fmt.Errorf("EstimateMany: %w", err)
			}
			sweepStart := time.Now()
			sweeps := make([]hkpr.SweepResult, len(seeds))
			sweepNS := make([]int64, len(seeds))
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < len(seeds); i += 2 {
						if errs[i] == nil {
							s := time.Now()
							sweeps[i] = hkpr.Sweep(g, results[i].Scores)
							sweepNS[i] = int64(time.Since(s))
						}
					}
				}()
			}
			wg.Wait()
			tr.Calls = append(tr.Calls, batchCall{
				NS:         int64(time.Since(callStart)),
				EstimateNS: int64(estD),
				SweepNS:    int64(time.Since(sweepStart)),
			})
			for i, s := range seeds {
				var lc *hkpr.LocalCluster
				if errs[i] == nil {
					lc = &hkpr.LocalCluster{Seed: hkpr.NodeID(s), Cluster: sweeps[i].Cluster, Conductance: sweeps[i].Conductance, HKPR: results[i]}
				}
				r := seedResult(s, lc, errs[i])
				r.SweepNS = sweepNS[i]
				r.Counted = j < batchCountCalls
				tr.Seeds = append(tr.Seeds, r)
			}
		}
		tr.WallNS = int64(time.Since(phaseStart))
		rep.Traced = tr
	}
	rep.RSSMiB, err = peakRSSMiB("self")
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	return rep, nil
}

// runBatchChild runs one batch child to completion and decodes its report.
func runBatchChild(graphPath string, plan batchPlan) (*batchReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(plan)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--batch-child", graphPath)
	cmd.SysProcAttr = killWithParent()
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("batch child: %w", err)
	}
	var rep batchReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("batch child report: %w", err)
	}
	return &rep, nil
}

func runBatch(cfg *config, g *benchGraph, graphPath string, rep *report) outcome {
	var out outcome
	refSeeds := referenceSeeds(cfg.seed, g.n)
	refs := exactReferences(g, refSeeds)

	plan := batchPlan{Seed: cfg.seed, SetupOnly: true}
	var setups []float64
	for i := 0; i+1 < setupReps; i++ {
		r, err := runBatchChild(graphPath, plan)
		if err != nil {
			out.fail("%v", err)
			return out
		}
		setups = append(setups, time.Duration(r.SetupNS).Seconds())
	}
	plan = batchPlan{Seed: cfg.seed, Trace: cfg.trace, WindowNS: int64(cfg.window()), Community: g.community}
	br, err := runBatchChild(graphPath, plan)
	if err != nil {
		out.fail("%v", err)
		return out
	}
	setups = append(setups, time.Duration(br.SetupNS).Seconds())
	rep.set("setup_s", median(setups), len(setups))
	rep.set("rss_mb", br.RSSMiB, 1)
	if br.Nodes != g.n {
		out.fail("the library loaded %d nodes, the generator wrote %d", br.Nodes, g.n)
	}
	for _, p := range br.Problems {
		out.fail("%s", p)
	}

	var chk refCheck
	for i, s := range refSeeds {
		if i < len(br.Reference) {
			chk.check(s, br.Reference[i], refs[i], 1/float64(g.n))
		}
	}
	reportRefCheck(&out, &chk, len(refSeeds))

	var calls, f1s, conds []float64
	seedless := 0
	for _, c := range br.Untraced.Calls {
		calls = append(calls, float64(c.NS)/1e6)
	}
	for _, s := range br.Untraced.Seeds {
		f1s = append(f1s, s.F1)
		conds = append(conds, s.Conductance)
		if s.Seedless {
			seedless++
		}
	}
	phases := []batchPhase{br.Untraced}
	if br.Traced != nil {
		phases = append(phases, *br.Traced)
	}
	for _, p := range phases {
		out.attempted += len(p.Seeds)
		for _, s := range p.Seeds {
			if s.Failed {
				out.failed++
			}
		}
	}
	wall := time.Duration(br.Untraced.WallNS).Seconds()
	rep.set("qps", float64(len(f1s))/wall, len(f1s))
	p50, _ := percentile(calls, 0.5)
	p90, b90 := percentile(calls, 0.9)
	rep.set("p50_ms", p50, len(calls))
	rep.set("p90_ms", p90, len(calls))
	p99, _ := percentile(calls, 0.99)
	rep.set("p99_ms", p99, len(calls))
	rep.set("f1", mean(f1s), len(f1s))
	rep.set("conductance", mean(conds), len(conds))
	fmt.Printf("untraced window: %d LocalClusterBatch calls of %d seeds in %.2fs (%d clusters without their seed); call p90 has %d samples beyond\n",
		len(calls), batchSeeds, wall, seedless, b90)

	if tr := br.Traced; tr != nil {
		var callMS, estMS, sweepWallMS, push, walk, merge, sweep, sizes []float64
		var pushes, walks, early, counted int
		for _, c := range tr.Calls {
			callMS = append(callMS, float64(c.NS)/1e6)
			estMS = append(estMS, float64(c.EstimateNS)/1e6)
			sweepWallMS = append(sweepWallMS, float64(c.SweepNS)/1e6)
		}
		for _, s := range tr.Seeds {
			push = append(push, float64(s.PushNS)/1e6)
			walk = append(walk, float64(s.WalkNS)/1e6)
			merge = append(merge, float64(s.MergeNS)/1e6)
			sweep = append(sweep, float64(s.SweepNS)/1e6)
			sizes = append(sizes, float64(s.Size))
			if s.Counted {
				counted++
				pushes += int(s.Pushes)
				walks += int(s.Walks)
				if s.Early {
					early++
				}
			}
		}
		fmt.Printf("  ledger over %d traced calls (mean per call): EstimateMany %.3f ms + sweeps %.3f ms + other %.3f ms = %.3f ms\n",
			len(callMS), mean(estMS), mean(sweepWallMS), mean(callMS)-mean(estMS)-mean(sweepWallMS), mean(callMS))
		rep.set("ledger.round_trip_ms", mean(callMS), len(callMS))
		rep.set("core.estimate_many_ms", mean(estMS), len(estMS))
		rep.set("core.push_ms", mean(push), len(push))
		rep.set("core.walk_ms", mean(walk), len(walk))
		rep.set("core.merge_ms", mean(merge), len(merge))
		rep.set("cluster.sweep_ms", mean(sweep), len(sweep))
		rep.set("cluster.size", mean(sizes), len(sizes))
		rep.set("core.push_ops", ratio(pushes, counted), counted)
		rep.set("core.walks", ratio(walks, counted), counted)
		rep.set("core.early_term_ratio", ratio(early, counted), counted)
		tracedQPS := float64(len(tr.Seeds)) / time.Duration(tr.WallNS).Seconds()
		rep.set("trace.qps_ratio", tracedQPS/(float64(len(f1s))/wall), len(tr.Seeds))
		if err := timeSetupLayers(graphPath, rep); err != nil {
			out.fail("%v", err)
		}
	}
	return out
}
