// Package hkpr is the public API of the TEA/TEA+ heat-kernel-PageRank local
// clustering library, a from-scratch Go implementation of
//
//	"Efficient Estimation of Heat Kernel PageRank for Local Clustering",
//	Renchi Yang, Xiaokui Xiao, Zhewei Wei, Sourav S Bhowmick, Jun Zhao,
//	Rong-Hua Li.  SIGMOD 2019.
//
// The typical workflow is:
//
//	g, err := hkpr.LoadEdgeListFile("graph.txt")      // or GeneratePLC, …
//	clusterer, err := hkpr.NewClusterer(g, hkpr.Options{Delta: 1.0 / float64(g.N())})
//	local, err := clusterer.LocalCluster(seed)        // TEA+ then sweep
//	fmt.Println(local.Cluster, local.Conductance)
//
// The HKPR estimators themselves (TEA, TEA+, Monte-Carlo, and the baselines
// HK-Relax and ClusterHKPR) are also exposed directly for callers that want
// the approximate HKPR vector rather than a cluster.
//
// # Serving
//
// A Clusterer answers one query at a time.  For serving workloads — one
// loaded graph, many independent low-latency queries from concurrent callers,
// the paper's §1 interactive-exploration scenario — use Engine instead:
//
//	eng, err := hkpr.NewEngine(g, hkpr.Options{}, hkpr.EngineConfig{
//		Workers:        8,                       // concurrent executions
//		QueueDepth:     64,                      // bounded admission queue
//		CacheBytes:     256 << 20,               // LRU result cache budget
//		DefaultTimeout: 2 * time.Second,         // per-query deadline
//	})
//	defer eng.Close()
//	local, err := eng.LocalCluster(ctx, seed)
//
// The engine schedules queries over a worker pool with bounded admission
// (excess load is shed with ErrOverloaded rather than queued indefinitely),
// caches results keyed by the resolved query parameters, coalesces concurrent
// identical queries into one execution, honors per-query context deadlines
// inside the core push/walk loops, and exports serving metrics
// (Engine.Stats, Engine.WriteMetrics).  With EngineConfig.BatchWindow set it
// additionally holds admitted queries for a short window and executes
// same-options queries as one batched multi-source pass.  cmd/hkprserver is
// built on it.
//
// # Batching
//
// Many queries with shared options are cheaper together: EstimateMany and
// Clusterer.EstimateMany push groups of seeds through one shared frontier
// scan per hop on a single pooled workspace, amortizing the graph pass across
// the batch while demultiplexing results bit-identical to independent
// single-seed calls.  Clusterer.LocalClusterBatch layers concurrent sweep
// cuts on top.
//
// # Parallelism
//
// The push phase is one serial loop per source; the Monte-Carlo walk stage
// parallelizes within a single query over Options.Parallelism goroutines.
// It runs sharded: a fixed shard set with per-shard RNGs, each shard
// recording its walks' end nodes (O(walks) memory, no n-sized state per
// shard), merged in (shard, walk) order.  For a fixed Options.Seed the
// result is bit-identical at any parallelism, so parallelism is purely a
// latency knob.  Inside an Engine, workers and walk shards share the
// EngineConfig.CPUTokens budget: a lone
// heavy query fans out across idle cores, a loaded engine degrades to one
// core per query.  With EngineConfig.Adaptive the engine picks each query's
// parallelism from the live queue depth and free tokens instead of a static
// default.  Use Options.WithSeed to pin a query's RNG seed — the SeedSet
// field makes an explicit seed of 0 distinguishable from "inherit".
package hkpr

import (
	"fmt"

	"hkpr/internal/baselines"
	"hkpr/internal/cluster"
	"hkpr/internal/core"
	"hkpr/internal/flow"
	"hkpr/internal/gen"
	"hkpr/internal/graph"
)

// Re-exported substrate types.  They alias the internal implementations, so
// values returned by this package interoperate with all exported helpers.
type (
	// Graph is an immutable undirected graph in CSR form.
	Graph = graph.Graph
	// GraphSnapshot is an immutable epoch-versioned view of a graph: a CSR
	// base plus a merged delta overlay.  Static graphs expose a single
	// epoch-0 snapshot; Dynamic graphs publish a new snapshot per update
	// batch while readers of older epochs stay valid.
	GraphSnapshot = graph.Snapshot
	// GraphSource is anything that can produce the current GraphSnapshot: a
	// *Graph (always its one static snapshot), a *Dynamic (the latest
	// published epoch), or a *GraphSnapshot itself (pinning that epoch).
	GraphSource = graph.Source
	// Dynamic is a live-updatable graph: an atomically published chain of
	// epoch snapshots with background compaction of accumulated deltas.
	Dynamic = graph.Dynamic
	// DynamicOptions tunes a Dynamic (compaction threshold).
	DynamicOptions = graph.DynamicOptions
	// UpdateBatch is one atomic set of graph mutations: node additions, edge
	// insertions and edge deletions, validated all-or-nothing.
	UpdateBatch = graph.UpdateBatch
	// NodeID identifies a node (dense IDs 0..N()-1).
	NodeID = graph.NodeID
	// Options configures the (d, εr, δ)-approximate HKPR computation.
	Options = core.Options
	// Result is a sparse approximate HKPR vector plus cost statistics.
	Result = core.Result
	// ScoreVector is the flat, node-sorted sparse score representation every
	// estimator returns (binary-search lookup, Map() escape hatch).
	ScoreVector = core.ScoreVector
	// ScoredNode is one (node, score) entry of a ScoreVector or ranking.
	ScoredNode = core.ScoredNode
	// SweepResult is the outcome of a sweep cut over HKPR scores.
	SweepResult = cluster.SweepResult
	// CommunityAssignment maps nodes to ground-truth community indices.
	CommunityAssignment = gen.CommunityAssignment
)

// Method selects the HKPR estimator used by a Clusterer.
type Method string

// Supported estimation methods.
const (
	// MethodTEAPlus is Algorithm 5, the paper's optimized estimator and the
	// recommended default.
	MethodTEAPlus Method = "tea+"
	// MethodTEA is Algorithm 3, the first-cut estimator.
	MethodTEA Method = "tea"
	// MethodMonteCarlo is the pure random-walk estimator of §3.
	MethodMonteCarlo Method = "monte-carlo"
	// MethodHKRelax is the Kloster–Gleich deterministic baseline.
	MethodHKRelax Method = "hk-relax"
	// MethodClusterHKPR is the Chung–Simpson Monte-Carlo baseline.
	MethodClusterHKPR Method = "cluster-hkpr"
	// MethodExact is the power-method ground truth (slow; for evaluation).
	MethodExact Method = "exact"
)

// Methods lists every supported method identifier.
func Methods() []Method {
	return []Method{MethodTEAPlus, MethodTEA, MethodMonteCarlo, MethodHKRelax, MethodClusterHKPR, MethodExact}
}

// Graph loading and generation ------------------------------------------------

// LoadEdgeListFile reads a whitespace-separated edge list (SNAP style; '#'
// and '%' comments ignored).
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// LoadBinaryFile reads a graph in the library's binary CSR format.
func LoadBinaryFile(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// SaveEdgeListFile writes a graph as a text edge list.
func SaveEdgeListFile(path string, g *Graph) error { return graph.SaveEdgeListFile(path, g) }

// SaveBinaryFile writes a graph in the binary CSR format.
func SaveBinaryFile(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// FromEdges builds a graph with n nodes from an explicit undirected edge list.
func FromEdges(n int, edges [][2]NodeID) *Graph { return graph.FromEdges(n, edges) }

// GeneratePLC generates a Holme–Kim power-law-cluster graph (the paper's PLC
// dataset family): n nodes, mEdges edges per new node, triad-closure
// probability triadP.
func GeneratePLC(n, mEdges int, triadP float64, seed uint64) (*Graph, error) {
	return gen.PowerlawCluster(n, mEdges, triadP, seed)
}

// GenerateGrid3D generates the paper's 3-D torus grid (every node has degree
// six).
func GenerateGrid3D(x, y, z int) (*Graph, error) { return gen.Grid3D(x, y, z) }

// GenerateSBM generates a planted-partition graph with ground-truth
// communities.
func GenerateSBM(communities, communitySize int, avgInDegree, avgOutDegree float64, seed uint64) (*Graph, CommunityAssignment, error) {
	return gen.SBM(gen.SBMConfig{
		Communities:   communities,
		CommunitySize: communitySize,
		AvgInDegree:   avgInDegree,
		AvgOutDegree:  avgOutDegree,
	}, seed)
}

// GenerateRMAT generates a heavy-tailed social-network-like graph with
// 2^scale nodes and roughly edgeFactor·2^scale edges.
func GenerateRMAT(scale int, edgeFactor float64, seed uint64) (*Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor), seed)
}

// LargestComponent restricts g to its largest connected component and returns
// the mapping from new to original node IDs.
func LargestComponent(g *Graph) (*Graph, []NodeID) { return graph.LargestComponent(g) }

// Dynamic graphs --------------------------------------------------------------

// NewDynamic wraps an immutable base graph as a live-updatable Dynamic.  Apply
// batches with Dynamic.ApplyUpdates (or, behind a serving engine, with
// Engine.ApplyUpdates, which additionally scopes cache invalidation).
func NewDynamic(g *Graph, opts DynamicOptions) *Dynamic { return graph.NewDynamic(g, opts) }

// Typed validation errors surfaced (wrapped) by update-batch application and
// Builder.AddEdgeStrict; match them with errors.Is.
var (
	// ErrSelfLoop rejects an edge whose endpoints coincide.
	ErrSelfLoop = graph.ErrSelfLoop
	// ErrDuplicateEdge rejects an edge that already exists (in the graph or
	// earlier in the same batch).
	ErrDuplicateEdge = graph.ErrDuplicateEdge
	// ErrEdgeNotFound rejects the removal of an absent edge.
	ErrEdgeNotFound = graph.ErrEdgeNotFound
	// ErrInvalidNode rejects an out-of-range node ID.
	ErrInvalidNode = graph.ErrInvalidNode
)

// Clustering metrics ----------------------------------------------------------

// Conductance returns Φ(S) of the node set S in g (any graph source: static
// graph, dynamic graph, or pinned snapshot).
func Conductance(g GraphSource, set []NodeID) float64 { return cluster.Conductance(g, set) }

// F1Score returns the F1-measure of a predicted node set against a
// ground-truth set.
func F1Score(predicted, truth []NodeID) float64 { return cluster.F1Score(predicted, truth) }

// NDCG evaluates a predicted ranking against ground-truth relevance scores at
// cutoff k (k <= 0 for the full list).
func NDCG(predicted []NodeID, truth map[NodeID]float64, k int) float64 {
	return cluster.NDCG(predicted, truth, k)
}

// Sweep performs the sweep-cut of §2.2 over un-normalized HKPR scores.
func Sweep(g GraphSource, scores ScoreVector) SweepResult { return cluster.Sweep(g, scores) }

// SweepK is Sweep bounded to the k best-ranked candidate nodes: only the
// top-k prefixes are inspected, skipping the ranking tail entirely.
func SweepK(g GraphSource, scores ScoreVector, k int) SweepResult {
	return cluster.SweepK(g, scores, k)
}

// Clusterer -------------------------------------------------------------------

// LocalCluster is the end-to-end output of one local clustering query.
type LocalCluster struct {
	// Seed is the query node.
	Seed NodeID
	// Cluster is the node set returned by the sweep.
	Cluster []NodeID
	// Conductance of the cluster.
	Conductance float64
	// HKPR is the approximate HKPR vector the sweep was computed from.
	HKPR *Result
	// Sweep carries the full sweep profile.
	Sweep SweepResult
}

// Clusterer answers local clustering queries on a fixed graph.  It amortizes
// the per-graph setup (heat-kernel weight table, adjusted failure
// probability) across queries, which is what an interactive application — the
// paper's motivating "explore Twitter around Elon Musk" scenario — needs.
type Clusterer struct {
	src    GraphSource
	g      *Graph // non-nil only when built over a static *Graph
	est    *core.Estimator
	method Method
}

// NewClusterer builds a Clusterer using MethodTEAPlus.  Options.Delta
// defaults to 1/N() if zero.
func NewClusterer(src GraphSource, opts Options) (*Clusterer, error) {
	return NewClustererWithMethod(src, opts, MethodTEAPlus)
}

// NewClustererWithMethod builds a Clusterer over any graph source — a static
// *Graph, a live-updatable *Dynamic, or a pinned *GraphSnapshot — using the
// given estimation method.  Only TEA+, TEA and Monte-Carlo are supported
// here; the baseline estimators have their own entry points (EstimateHKPR).
// Over a Dynamic each query resolves the latest published epoch.
func NewClustererWithMethod(src GraphSource, opts Options, method Method) (*Clusterer, error) {
	switch method {
	case MethodTEAPlus, MethodTEA, MethodMonteCarlo:
	default:
		return nil, fmt.Errorf("hkpr: clusterer supports tea+, tea and monte-carlo, got %q", method)
	}
	if opts.Delta == 0 {
		if n := src.Snapshot().N(); n > 1 {
			opts.Delta = 1 / float64(n)
		} else {
			return nil, fmt.Errorf("hkpr: graph too small for local clustering")
		}
	}
	est, err := core.NewEstimator(src, opts)
	if err != nil {
		return nil, err
	}
	g, _ := src.(*Graph)
	return &Clusterer{src: src, g: g, est: est, method: method}, nil
}

// Graph returns the underlying static graph, or nil when the clusterer was
// built over a dynamic source; use Snapshot for a view that always exists.
func (c *Clusterer) Graph() *Graph { return c.g }

// Snapshot returns the current immutable snapshot of the clusterer's graph
// source (the latest published epoch for a Dynamic).
func (c *Clusterer) Snapshot() *GraphSnapshot { return c.src.Snapshot() }

// Options returns the resolved estimation options (defaults applied, p'_f
// cached) shared by every query issued through this clusterer.
func (c *Clusterer) Options() Options { return c.est.Options() }

// Estimate computes the approximate HKPR vector for seed using the
// clusterer's method.  query carries optional per-query overrides (Seed for
// the RNG, EpsRel, Delta); zero fields keep the clusterer's settings.
func (c *Clusterer) Estimate(seed NodeID, query Options) (*Result, error) {
	switch c.method {
	case MethodTEA:
		return c.est.TEA(seed, query)
	case MethodMonteCarlo:
		return c.est.MonteCarlo(seed, query)
	default:
		return c.est.TEAPlus(seed, query)
	}
}

// LocalCluster runs the full two-phase pipeline for the seed: approximate
// HKPR estimation followed by the sweep cut.
func (c *Clusterer) LocalCluster(seed NodeID) (*LocalCluster, error) {
	return c.LocalClusterWithOptions(seed, Options{})
}

// LocalClusterWithOptions is LocalCluster with per-query overrides.
func (c *Clusterer) LocalClusterWithOptions(seed NodeID, query Options) (*LocalCluster, error) {
	res, err := c.Estimate(seed, query)
	if err != nil {
		return nil, err
	}
	sw := cluster.Sweep(c.src, res.Scores)
	return &LocalCluster{
		Seed:        seed,
		Cluster:     sw.Cluster,
		Conductance: sw.Conductance,
		HKPR:        res,
		Sweep:       sw,
	}, nil
}

// Standalone estimators -------------------------------------------------------

// EstimateHKPR runs the chosen method once.  For MethodHKRelax the εa
// threshold is taken as opts.EpsRel·opts.Delta (the setting under which its
// guarantee matches (d, εr, δ)-approximation, §3); for MethodClusterHKPR the
// ε parameter is opts.EpsRel·opts.Delta as well.
//
// The core methods (TEA+, TEA, Monte-Carlo) run directly on any graph source;
// the baselines operate on plain CSR graphs, so a dynamic source is
// materialized into one (an O(n+m) copy) before the baseline runs.
func EstimateHKPR(src GraphSource, seed NodeID, method Method, opts Options) (*Result, error) {
	switch method {
	case MethodTEAPlus:
		return core.TEAPlus(src, seed, opts)
	case MethodTEA:
		return core.TEA(src, seed, opts)
	case MethodMonteCarlo:
		return core.MonteCarloOnly(src, seed, opts)
	}
	g, ok := src.(*Graph)
	if !ok {
		g = src.Snapshot().Materialize()
	}
	switch method {
	case MethodHKRelax:
		t := opts.T
		if t == 0 {
			t = core.DefaultHeat
		}
		eps := opts.EpsRel * opts.Delta
		if eps == 0 {
			eps = 1e-6
		}
		return baselines.HKRelax(g, seed, baselines.HKRelaxOptions{T: t, EpsAbs: eps})
	case MethodClusterHKPR:
		t := opts.T
		if t == 0 {
			t = core.DefaultHeat
		}
		eps := opts.EpsRel * opts.Delta
		if eps == 0 {
			eps = 0.01
		}
		return baselines.ClusterHKPR(g, seed, baselines.ClusterHKPROptions{
			T: t, Epsilon: eps, Seed: opts.Seed, MaxWalks: 5_000_000,
		})
	case MethodExact:
		t := opts.T
		if t == 0 {
			t = core.DefaultHeat
		}
		return baselines.Exact(g, seed, baselines.ExactOptions{T: t})
	default:
		return nil, fmt.Errorf("hkpr: unknown method %q", method)
	}
}

// SimpleLocalCluster runs the flow-based SimpleLocal baseline for a seed.
func SimpleLocalCluster(g *Graph, seed NodeID, locality float64) ([]NodeID, float64, error) {
	res, err := flow.SimpleLocal(g, seed, flow.SimpleLocalOptions{Locality: locality})
	if err != nil {
		return nil, 0, err
	}
	return res.Cluster, res.Conductance, nil
}

// CRDCluster runs the capacity-releasing-diffusion baseline for a seed.
func CRDCluster(g *Graph, seed NodeID, iterations int) ([]NodeID, float64, error) {
	res, err := flow.CRD(g, seed, flow.CRDOptions{Iterations: iterations})
	if err != nil {
		return nil, 0, err
	}
	return res.Cluster, res.Conductance, nil
}
