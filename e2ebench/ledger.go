package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// The ledger attributes each traced round trip to layers.  The benchmark's
// own span is the client round trip; its children are the stage spans the
// server returns.  A stage starting at or after the record's frozen total_ns
// (render on a miss: per-caller rendering happens after the shared record is
// frozen) is a sibling of the total, not part of it.  So, per request:
//
//	round trip = http + Σ stages inside total + unattributed + Σ sibling stages
//	http         = round trip − total_ns − Σ sibling stages
//	unattributed = total_ns − Σ stages inside total
//
// Both remainders keep their sign.  Means add up where medians do not, so
// every ledger figure is a mean over all traced requests, a request without
// a stage contributing zero to it.
type ledger struct {
	requests     int
	roundTrip    float64            // Σ ns
	http         float64            // Σ ns
	unattributed float64            // Σ ns
	stages       map[string]float64 // stage → Σ ns
	overTotal    int                // records whose inside stages exceed total_ns
	firstOver    string
}

func newLedger() *ledger { return &ledger{stages: map[string]float64{}} }

func (l *ledger) add(rt time.Duration, rec *serverRecord) {
	l.requests++
	l.roundTrip += float64(rt)
	var inside, sibling int64
	for _, st := range rec.Stages {
		l.stages[st.Stage] += float64(st.DurationNS)
		if st.StartNS >= rec.TotalNS {
			sibling += st.DurationNS
		} else {
			inside += st.DurationNS
		}
	}
	if inside > rec.TotalNS {
		l.overTotal++
		if l.firstOver == "" {
			l.firstOver = fmt.Sprintf("stages sum to %d ns inside a total_ns of %d", inside, rec.TotalNS)
		}
	}
	l.unattributed += float64(rec.TotalNS - inside)
	l.http += float64(int64(rt) - rec.TotalNS - sibling)
}

// meanMS returns a Σ ns figure as a mean per request in milliseconds.
func (l *ledger) meanMS(sumNS float64) float64 {
	if l.requests == 0 {
		return 0
	}
	return sumNS / float64(l.requests) / 1e6
}

// stageOrder is the server's stage order; stages the server adds later are
// printed after these.
var stageOrder = []string{"queue_wait", "cache_lookup", "workspace", "push", "walk", "merge", "sweep", "render"}

// stageLayer names the layer that owns each server stage.
var stageLayer = map[string]string{
	"queue_wait":   "serve",
	"cache_lookup": "serve",
	"workspace":    "serve",
	"render":       "serve",
	"push":         "core",
	"walk":         "core",
	"merge":        "core",
	"sweep":        "cluster",
}

// write prints the ledger table and returns the identity error: the mean
// round trip minus the sum of every row, which must be zero up to float
// rounding.
func (l *ledger) write(w io.Writer) float64 {
	fmt.Fprintf(w, "  ledger over %d traced requests (mean per request):\n", l.requests)
	sum := 0.0
	row := func(layer, name string, ns float64) {
		sum += l.meanMS(ns)
		fmt.Fprintf(w, "    %-10s %-14s %10.4f ms\n", layer, name, l.meanMS(ns))
	}
	row("hkprserver", "http", l.http)
	names := slices.Clone(stageOrder)
	for name := range l.stages {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	for _, name := range names {
		layer := stageLayer[name]
		if layer == "" {
			layer = "(new)"
		}
		row(layer, name, l.stages[name])
	}
	row("serve", "unattributed", l.unattributed)
	gap := l.meanMS(l.roundTrip) - sum
	fmt.Fprintf(w, "    %-25s %10.4f ms (rows sum to %.4f ms; difference %.2g ms)\n",
		"round trip", l.meanMS(l.roundTrip), sum, gap)
	return gap
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, and how many samples lie strictly beyond it.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	v := s[lo]
	if lo+1 < len(s) {
		v += (pos - float64(lo)) * (s[lo+1] - s[lo])
	}
	beyond := len(s) - sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1)))
	return v, beyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metricDef is one metric the benchmark reports.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json declares
// them.  Each applies to every workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"f1", "ratio"},
	{"conductance", "ratio"},
	{"rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run, as BENCHMARK.json declares
// them.  A layer a workload does not reach reads 0 on that workload.
var perLayer = []metricDef{
	{"ledger.round_trip_ms", "ms"},
	{"hkprserver.http_ms", "ms"},
	{"hkprserver.resp_bytes", "bytes"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cache_lookup_us", "us"},
	{"serve.workspace_us", "us"},
	{"serve.render_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.cache_entries", "count"},
	{"serve.entry_kb", "KiB"},
	{"serve.stale_discard_ratio", "ratio"},
	{"serve.radius_invalidations", "count"},
	{"serve.update_ms", "ms"},
	{"serve.invalidate_ms", "ms"},
	{"graph.update_apply_ms", "ms"},
	{"core.push_ms", "ms"},
	{"core.walk_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.push_ops", "count"},
	{"core.walks", "count"},
	{"core.early_term_ratio", "ratio"},
	{"core.estimate_many_ms", "ms"},
	{"cluster.sweep_ms", "ms"},
	{"cluster.size", "count"},
	{"graph.load_s", "s"},
	{"serve.engine_build_s", "s"},
	{"p99_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"trace.qps_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and prints them by name with unit and
// sample count.
type report struct {
	w       io.Writer
	values  map[string]float64
	samples map[string]int
}

func newReport(w io.Writer) *report {
	return &report{w: w, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// metrics returns the named metrics for the result line; a metric the run
// did not set reads 0.
func (r *report) metrics(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) print(title string, defs []metricDef) {
	fmt.Fprintf(r.w, "%s:\n", title)
	for _, d := range defs {
		n, ok := r.samples[d.name]
		if !ok {
			fmt.Fprintf(r.w, "  %-28s %14s %-6s (not reached by this workload)\n", d.name, "0", d.unit)
			continue
		}
		fmt.Fprintf(r.w, "  %-28s %14.6g %-6s n=%d\n", d.name, r.values[d.name], d.unit, n)
	}
}
