package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hkpr"
)

// small is a scaled-down livejournal stand-in for tests.
var small = lfrConfig{
	Nodes: 3000, AvgDegree: 17.3, MaxDegree: 500, DegreeExponent: 2.4,
	MinCommunity: 15, MaxCommunity: 250, Mu: 0.25,
}

func smallGraph(t *testing.T, seed uint64) (*benchGraph, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.txt")
	g, err := makeGraph(small, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	return g, path
}

// inputs collects every input a run sends, for a given seed.
func inputs(t *testing.T, seed uint64) map[string]any {
	g, _ := smallGraph(t, seed)
	rank, z := exploreRanking(seed, g.n), newZipf(g.n, zipfExponent)
	perm := coldPermutation(seed, g.n)
	out := map[string]any{"edges": g.edges, "community": g.community, "reference": referenceSeeds(seed, g.n)}
	for s := 0; s < sessions; s++ {
		st := newExploreStream(seed, rank, z, s)
		var explore []int32
		for i := 0; i < 500; i++ {
			explore = append(explore, st.next())
		}
		out["explore"+string(rune('0'+s))] = explore
		for phase := phaseWarm; phase <= phaseTraced; phase++ {
			cs := newColdStream(perm, s, phase)
			var cold []int32
			for i := 0; i < 50; i++ {
				v, _ := cs.next()
				cold = append(cold, v)
			}
			out["cold"+string(rune('0'+s))+string(rune('0'+phase))] = cold
		}
	}
	var updates, batches [][]int32
	for j := 0; j < 20; j++ {
		var flat []int32
		for _, e := range updatePlan(seed, g.edges, j) {
			flat = append(flat, e[0], e[1])
		}
		updates = append(updates, flat)
		batches = append(batches, batchList(seed, g.n, phaseMeasure, j), batchList(seed, g.n, phaseTraced, j))
	}
	out["updates"], out["batches"] = updates, batches
	return out
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	a, b, c := inputs(t, 7), inputs(t, 7), inputs(t, 8)
	for name := range a {
		ja, _ := json.Marshal(a[name])
		jb, _ := json.Marshal(b[name])
		jc, _ := json.Marshal(c[name])
		if string(ja) != string(jb) {
			t.Errorf("%s differs between two runs with the same seed", name)
		}
		if string(ja) == string(jc) {
			t.Errorf("%s is the same for seeds 7 and 8", name)
		}
	}
}

func TestColdSeedsAreDistinct(t *testing.T) {
	perm := coldPermutation(3, 1000)
	seen := map[int32]bool{}
	for phase := phaseWarm; phase <= phaseTraced; phase++ {
		for s := 0; s < sessions; s++ {
			cs := newColdStream(perm, s, phase)
			for v, ok := cs.next(); ok; v, ok = cs.next() {
				if seen[v] {
					t.Fatalf("seed %d handed out twice", v)
				}
				seen[v] = true
			}
		}
	}
}

func TestUpdatePlanTogglesExistingEdges(t *testing.T) {
	g, _ := smallGraph(t, 5)
	for j := 0; j < 50; j++ {
		plan := updatePlan(5, g.edges, j)
		if len(plan) != updateEdges {
			t.Fatalf("pair %d toggles %d edges", j, len(plan))
		}
		for i, e := range plan {
			if !slices.Contains(g.neighbors(e[0]), e[1]) {
				t.Fatalf("pair %d edge %v is not in the graph", j, e)
			}
			if slices.Contains(plan[:i], e) {
				t.Fatalf("pair %d toggles edge %v twice", j, e)
			}
		}
	}
}

// TestMappingReproducesLibraryQuery checks the first-appearance mapping
// against the library's own loader: the loaded graph has exactly the mapped
// adjacency, so a query for a mapped seed returns the same cluster as a
// query on the mapped edges built directly, and that cluster scores well
// against the mapped planted community (a wrong mapping scores near 0).
func TestMappingReproducesLibraryQuery(t *testing.T) {
	g, path := smallGraph(t, 11)
	loaded, err := hkpr.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != g.n || loaded.M() != int64(len(g.edges)) {
		t.Fatalf("loader has n=%d m=%d, benchmark n=%d m=%d", loaded.N(), loaded.M(), g.n, len(g.edges))
	}
	for v := int32(0); v < int32(g.n); v++ {
		got := loaded.Neighbors(hkpr.NodeID(v))
		want := g.neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: loader has %d neighbours, benchmark %d", v, len(got), len(want))
		}
		for i := range got {
			if int32(got[i]) != want[i] {
				t.Fatalf("node %d: neighbour %d is %d in the loader, %d in the benchmark", v, i, got[i], want[i])
			}
		}
	}
	edges := make([][2]hkpr.NodeID, len(g.edges))
	for i, e := range g.edges {
		edges[i] = [2]hkpr.NodeID{hkpr.NodeID(e[0]), hkpr.NodeID(e[1])}
	}
	direct := hkpr.FromEdges(g.n, edges)
	fromFile, err := hkpr.NewClusterer(loaded, hkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fromEdges, err := hkpr.NewClusterer(direct, hkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f1 := 0.0
	seeds := referenceSeeds(11, g.n)
	for _, s := range seeds {
		a, err := fromFile.LocalCluster(hkpr.NodeID(s))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fromEdges.LocalCluster(hkpr.NodeID(s))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Cluster, b.Cluster) {
			t.Fatalf("seed %d: cluster from the file differs from the cluster on the mapped edges", s)
		}
		cluster := make([]int32, len(a.Cluster))
		for i, v := range a.Cluster {
			cluster[i] = int32(v)
		}
		f1 += f1Score(g, cluster, s)
	}
	if f1 /= float64(len(seeds)); f1 < 0.5 {
		t.Fatalf("mean F1 against the mapped planted communities is %.3f", f1)
	}
}

// TestExactReferenceMatchesLibrary checks the dense power iteration against
// the library's exact baseline.
func TestExactReferenceMatchesLibrary(t *testing.T) {
	g, path := smallGraph(t, 2)
	loaded, err := hkpr.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seed := int32(17)
	got := exactHKPR(g, seed, heatT)
	want, err := hkpr.EstimateHKPR(loaded, hkpr.NodeID(seed), hkpr.MethodExact, hkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range want.Scores {
		if d := math.Abs(got[e.Node] - e.Score); d > 1e-9 {
			t.Fatalf("node %d: dense %.12g, library %.12g", e.Node, got[e.Node], e.Score)
		}
	}
}

func TestRefCheckAppliesDefinition1(t *testing.T) {
	ref := []float64{0.1, 0.01, 1e-7}
	var c refCheck
	c.check(0, []scoredNode{{0, 0.14}, {1, 0.006}, {2, 5e-7}}, ref, 1e-6)
	if c.violations != 0 || c.guarded != 2 {
		t.Fatalf("within εr: %+v", c)
	}
	c.check(0, []scoredNode{{1, 0.016}}, ref, 1e-6)
	if c.violations != 1 {
		t.Fatalf("relative error 0.6 passed: %+v", c)
	}
}

func TestLedgerAddsUp(t *testing.T) {
	type span = struct {
		Stage      string `json:"stage"`
		StartNS    int64  `json:"start_ns"`
		DurationNS int64  `json:"duration_ns"`
	}
	miss := &serverRecord{TotalNS: 1000, Stages: []span{
		{"queue_wait", 10, 20}, {"push", 40, 700}, {"sweep", 750, 200}, {"render", 1010, 30},
	}}
	hit := &serverRecord{TotalNS: 100, Stages: []span{{"cache_lookup", 5, 10}, {"render", 20, 60}}}
	l := newLedger()
	l.add(1200*time.Nanosecond, miss)
	l.add(150*time.Nanosecond, hit)
	if got, want := l.http, float64((1200-1000-30)+(150-100)); got != want {
		t.Fatalf("http %v, want %v", got, want)
	}
	if got, want := l.unattributed, float64((1000-920)+(100-70)); got != want {
		t.Fatalf("unattributed %v, want %v", got, want)
	}
	if gap := l.write(&testWriter{t}); gap != 0 {
		t.Fatalf("rows miss the round trip by %v", gap)
	}
	l.add(time.Microsecond, &serverRecord{TotalNS: 50, Stages: []span{{"push", 0, 60}}})
	if l.overTotal != 1 {
		t.Fatal("stages exceeding total_ns went unnoticed")
	}
}

type testWriter struct{ t *testing.T }

func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if v, beyond := percentile(xs, 0.5); v != 3 || beyond != 2 {
		t.Fatalf("p50 = %v with %d beyond", v, beyond)
	}
	if v, _ := percentile(xs, 0.9); math.Abs(v-4.6) > 1e-12 {
		t.Fatalf("p90 = %v", v)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"explore", "cold", "churn", "batch"}) {
		t.Fatalf("workloads %v", names)
	}
}
