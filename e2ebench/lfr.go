package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
)

// lfrConfig parameterizes the LFR-lite generator: power-law degrees rescaled
// to an average, power-law community sizes carved from the node range, and a
// mixing parameter mu giving the share of each node's edges that leave its
// community.
type lfrConfig struct {
	Nodes          int
	AvgDegree      float64
	MaxDegree      int
	DegreeExponent float64
	MinCommunity   int
	MaxCommunity   int
	Mu             float64
}

// liveJournal is the livejournal stand-in of the repository's dataset
// registry at full scale (5 × 25k nodes).  After de-duplication it has about
// 125k nodes, 0.95M edges and average degree 15.  The benchmark carries its
// own generator so that a change to the library's generators cannot change
// the benchmark's inputs.
var liveJournal = lfrConfig{
	Nodes: 125_000, AvgDegree: 17.3, MaxDegree: 500, DegreeExponent: 2.4,
	MinCommunity: 15, MaxCommunity: 250, Mu: 0.25,
}

// datasetSeed fixes the graph and explore's popularity ranking for every
// run; the workload seed draws the traffic on it.  With both drawn from the
// workload seed, explore and churn throughput varied 13-24% (interquartile
// range over median) across ten seeds, because a run's speed hinges on which
// few hundred nodes are moderately popular: hubs among them have expensive
// results that overflow the cache's per-shard budget.  With the dataset
// fixed the same figures vary 2-7%.
const datasetSeed = 1

// benchGraph is the generated workload graph in the numbering the server
// uses.  graph.ReadEdgeList renumbers nodes in first-appearance order, so
// every node ID the benchmark sends (seeds, toggled edges) and every planted
// community it scores against passes through that order first.
type benchGraph struct {
	n         int
	offsets   []int32 // CSR over server IDs, neighbours sorted
	adj       []int32
	community []int32   // planted community of each server node
	members   [][]int32 // community index → its members (server IDs)
	edges     [][2]int32
}

func (g *benchGraph) degree(v int32) int32 { return g.offsets[v+1] - g.offsets[v] }

func (g *benchGraph) neighbors(v int32) []int32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// generateLFR returns the planted community of every generator node and the
// de-duplicated undirected edges as sorted u<<32|v keys with u < v.
func generateLFR(cfg lfrConfig, seed uint64) ([]int32, []uint64) {
	r := rand.New(rand.NewPCG(seed, 0x6c66722d6265))
	n := cfg.Nodes

	deg := make([]int, n)
	raw := make([]float64, n)
	sum := 0.0
	for i := range raw {
		raw[i] = powerLaw(r, 2, float64(cfg.MaxDegree), cfg.DegreeExponent)
		sum += raw[i]
	}
	scale := cfg.AvgDegree * float64(n) / sum
	for i := range deg {
		deg[i] = min(max(int(float64(int(raw[i]))*scale+0.5), 2), cfg.MaxDegree)
	}

	community := make([]int32, n)
	var bounds []int // community c holds nodes bounds[c] .. bounds[c+1]-1
	for v := 0; v < n; {
		size := int(powerLaw(r, float64(cfg.MinCommunity), float64(cfg.MaxCommunity), 2))
		if n-v-size < cfg.MinCommunity {
			size = n - v // fold a short tail into the last community
		}
		bounds = append(bounds, v)
		for end := v + size; v < end; v++ {
			community[v] = int32(len(bounds) - 1)
		}
	}
	bounds = append(bounds, n)

	keys := make([]uint64, 0, n*int(cfg.AvgDegree)/2+n)
	add := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
	}
	var global, stubs []int32
	for c := 0; c+1 < len(bounds); c++ {
		lo, hi := bounds[c], bounds[c+1]
		stubs = stubs[:0]
		for u := lo; u < hi; u++ {
			in := min(int(float64(deg[u])*(1-cfg.Mu)+0.5), hi-lo-1)
			for i := 0; i < in; i++ {
				stubs = append(stubs, int32(u))
			}
			for i := in; i < deg[u]; i++ {
				global = append(global, int32(u))
			}
		}
		r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		for i := 0; i+1 < len(stubs); i += 2 {
			add(stubs[i], stubs[i+1])
		}
		// A ring keeps every community connected.
		for u := lo; u < hi; u++ {
			next := u + 1
			if next == hi {
				next = lo
			}
			add(int32(u), int32(next))
		}
	}
	r.Shuffle(len(global), func(i, j int) { global[i], global[j] = global[j], global[i] })
	for i := 0; i+1 < len(global); i += 2 {
		if community[global[i]] != community[global[i+1]] {
			add(global[i], global[i+1])
		}
	}
	slices.Sort(keys)
	return community, slices.Compact(keys)
}

// powerLaw draws from a power law with exponent gamma truncated to [lo, hi].
func powerLaw(r *rand.Rand, lo, hi, gamma float64) float64 {
	a, b := math.Pow(lo, 1-gamma), math.Pow(hi, 1-gamma)
	return math.Pow(a+r.Float64()*(b-a), 1/(1-gamma))
}

// writeEdgeList writes one "u v" line per key, in key order.
func writeEdgeList(path string, keys []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, k := range keys {
		line = strconv.AppendUint(line[:0], k>>32, 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, k&math.MaxUint32, 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// firstAppearance returns, for every generator node, the ID the edge-list
// loader assigns it: nodes are numbered in the order they first appear in
// the file, left endpoint before right.  Nodes on no edge map to -1.
func firstAppearance(n int, keys []uint64) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = -1
	}
	next := int32(0)
	see := func(v uint64) {
		if order[v] < 0 {
			order[v] = next
			next++
		}
	}
	for _, k := range keys {
		see(k >> 32)
		see(k & math.MaxUint32)
	}
	return order
}

// newBenchGraph renumbers the generated graph into server IDs.
func newBenchGraph(genCommunity []int32, keys []uint64, order []int32) (*benchGraph, error) {
	n := 0
	for _, id := range order {
		n = max(n, int(id)+1)
	}
	g := &benchGraph{n: n, community: make([]int32, n), offsets: make([]int32, n+1)}
	ncomm := int32(0)
	for v, id := range order {
		if id >= 0 {
			g.community[id] = genCommunity[v]
			ncomm = max(ncomm, genCommunity[v]+1)
		}
	}
	g.members = make([][]int32, ncomm)
	for v := int32(0); v < int32(n); v++ {
		c := g.community[v]
		g.members[c] = append(g.members[c], v)
	}
	g.edges = make([][2]int32, len(keys))
	for i, k := range keys {
		u, v := order[k>>32], order[k&math.MaxUint32]
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("edge %d has an unmapped endpoint", i)
		}
		g.edges[i] = [2]int32{min(u, v), max(u, v)}
		g.offsets[u+1]++
		g.offsets[v+1]++
	}
	for v := 1; v <= n; v++ {
		g.offsets[v] += g.offsets[v-1]
	}
	g.adj = make([]int32, g.offsets[n])
	cursor := slices.Clone(g.offsets[:n])
	for _, e := range g.edges {
		g.adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		g.adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for v := int32(0); v < int32(n); v++ {
		slices.Sort(g.neighbors(v))
	}
	return g, nil
}

// makeGraph generates the workload graph for seed, writes it to path and
// returns it in server numbering.
func makeGraph(cfg lfrConfig, seed uint64, path string) (*benchGraph, error) {
	community, keys := generateLFR(cfg, seed)
	if err := writeEdgeList(path, keys); err != nil {
		return nil, fmt.Errorf("writing edge list: %w", err)
	}
	return newBenchGraph(community, keys, firstAppearance(cfg.Nodes, keys))
}
