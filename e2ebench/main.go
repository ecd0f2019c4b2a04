// Command e2ebench is the repository benchmark.  It generates an LFR graph,
// starts the hkprserver built from the working tree on loopback, drives one
// of four workloads against it from at most two connections with traffic
// drawn from a workload seed, checks every answer, and prints each metric by
// name with its unit and sample count.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	sh e2ebench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// measures half the time untraced and half with trace=1 on every query, and
// prints the per-layer ledger.  The benchmark reaches cmd/hkprserver only
// over HTTP and the library only through package hkpr's public API, so any
// layer can be rewritten without editing it.
//
// Workloads, with the layer each loads and the one it bypasses:
//
//   - explore: interactive exploration (the paper's §1 scenario).  Two
//     closed-loop sessions send GET /cluster?seed=S&topk=10 with seeds drawn
//     Zipf(1.3) over a slowly drifting popularity ranking of the community
//     members, after an untimed warm-up prefix of the same streams that
//     fills the cache.  About 70% of requests hit the cache, so p50_ms
//     measures HTTP + cache lookup + top-k render, and p90_ms measures TEA+
//     misses.  The Zipf tail overflows the default 64 MiB cache (about 100
//     results of ~550 KB).  Closed loop, because a user waits for one
//     cluster before asking for the next, and because an open loop on two
//     connections queues in the client instead of the server.
//   - cold: two closed-loop sessions, every request a distinct uniformly
//     drawn seed with nocache=1.  Bypasses the cache and coalescing; every
//     request runs the TEA+ push/walk/merge path and the sweep.  A cache
//     change should not move it; a core or cluster change should.
//   - churn: one reader session sends explore's stream while one writer
//     connection replays an update log, one POST /update per 16 reads
//     (about 5 posts/s at 80 reads/s): post 2j removes one sampled edge and
//     post 2j+1 adds it back, so every batch validates.  Loads epoch
//     publish, overlay reads, radius invalidation and the stale-epoch guard
//     beside the read path.  Every post discards the results of the
//     executions it overlaps and invalidates cached results near its edge,
//     so on a fixed write schedule the read hit ratio fell with host speed:
//     at 5 posts/s it dropped from 0.65 to 0.51 on a host running three
//     times slower, where p50_ms sits on the edge between hit (~1 ms) and
//     miss (~30 ms) latency; with 8 edges per post it sat at 0.44-0.48.  A
//     fixed read:write mix keeps it near 0.65 at any speed.  The log
//     belongs to the dataset (drawn from datasetSeed), because which hot
//     results a sampled edge invalidates sets a run's hit ratio; the reads
//     come from the workload seed.  At a few edge operations per second a
//     run stays far below the default background-compaction threshold of
//     4096 operations, so compaction never runs.
//   - batch: in-process library calls in a child process: a MethodTEA
//     Clusterer, then LocalClusterBatch(seeds, 2) over fixed lists of 4
//     seeds.  The only workload that reaches the lane-batched TEA push;
//     bypasses HTTP and the serving engine entirely.
//
// The graph, explore's popularity ranking, churn's update log and batch's
// seed lists form a fixed dataset (see datasetSeed); the workload seed draws
// the explore and churn request streams, the cold seeds and the seeds
// checked against the exact reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// setupReps is how many times a run sets up the serving process; setup_s is
// the median.
const setupReps = 3

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root
	work     string // per-invocation working directory under .bench_build
	start    time.Time
}

// step logs the run's progress to standard error.
func (c *config) step(what string) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(c.start).Seconds(), what)
}

// outcome is what a workload hands back for the result line.
type outcome struct {
	attempted, failed int
	problems          []string // correctness-gate failures
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "explore, cold, churn or batch")
	seed := fs.Uint64("seed", 1, "workload seed; every input is a function of it")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	child := fs.String("batch-child", "", "run as the batch workload's library process over this edge list (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return batchChild(*child)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	workloads := map[string]func(*config, *benchGraph, string, *report) outcome{
		"explore": runExplore,
		"cold":    runCold,
		"churn":   runChurn,
		"batch":   runBatch,
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown --workload %q (explore, cold, churn, batch)\n", *workload)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "hkprserver", "main.go")); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run from the repository root (cmd/hkprserver not found)")
		return 2
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root, start: time.Now()}
	cfg.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(cfg.work)

	graphPath := filepath.Join(cfg.work, "graph.txt")
	g, err := makeGraph(liveJournal, datasetSeed, graphPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: generating the graph:", err)
		return 2
	}
	cfg.step("graph written")
	printHeader(cfg, g)
	rep := newReport(os.Stdout)
	out := runWorkload(cfg, g, graphPath, rep)
	if cfg.trace {
		rep.print("per-layer metrics (traced run)", perLayer)
	} else {
		rep.print("end-to-end metrics (untraced run)", endToEnd)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  %-28s %14.6g %-6s n=%d (failed %d)\n", "error_rate", errRate, "ratio", out.attempted, out.failed)
	correct := len(out.problems) == 0 && out.attempted > 0
	for _, p := range out.problems {
		fmt.Println("CORRECTNESS FAILURE:", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, rep.metrics(defs)})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printHeader(cfg *config, g *benchGraph) {
	commit := "unknown (not a git checkout)"
	if b, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("graph: LFR livejournal stand-in, dataset seed %d, n=%d m=%d communities=%d\n", datasetSeed, g.n, len(g.edges), len(g.members))
}

// window is the measured time per phase: a traced run splits its time
// between an untraced and a traced half.
func (c *config) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}
