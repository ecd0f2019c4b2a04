package core

import (
	"time"

	"hkpr/internal/graph"
)

// Result is the outcome of an approximate-HKPR computation.
//
// The estimate for a node v is Scores[v] + OffsetPerDegree·d(v); nodes absent
// from Scores have estimate OffsetPerDegree·d(v).  TEA+ uses the per-degree
// offset to implement the εr·δ/2·d(v) correction of Algorithm 5 lines 18-19
// without touching every node; the offset does not change the normalized
// ranking, so the sweep can (and does) ignore it.
type Result struct {
	// Seed is the query node.
	Seed graph.NodeID
	// Scores holds the sparse, un-normalized HKPR estimates ρ̂_s[v] for the
	// nodes touched by the computation, as a flat node-sorted vector built
	// directly from the workspace's touched list (no map is ever
	// constructed).  Use Scores.Score/Lookup for point reads and Scores.Map
	// for callers that need the legacy mutable map form.
	Scores ScoreVector
	// OffsetPerDegree is added (times the node degree) to every estimate.
	OffsetPerDegree float64
	// Stats describes the work performed.
	Stats Stats
}

// Stats captures the cost breakdown of one HKPR query; the benchmark harness
// aggregates these to regenerate the paper's cost analyses, and the serving
// layer embeds it in query traces (hence the JSON tags; durations marshal as
// nanoseconds).
type Stats struct {
	// PushOperations counts push operations: the paper's unit where pushing a
	// node v at hop k costs d(v) operations.
	PushOperations int64 `json:"push_operations"`
	// PushedNodes counts (node, hop) entries that were pushed.
	PushedNodes int64 `json:"pushed_nodes"`
	// RandomWalks is the number of random walks performed.
	RandomWalks int64 `json:"random_walks"`
	// WalkSteps is the total number of edge traversals over all walks.
	WalkSteps int64 `json:"walk_steps"`
	// ResidueMassBeforeWalks is α, the total residue handed to the walk phase
	// (after any residue reduction).
	ResidueMassBeforeWalks float64 `json:"residue_mass_before_walks"`
	// MaxHop is the largest hop level holding non-zero residue after pushing.
	MaxHop int `json:"max_hop"`
	// EarlyTermination is true when TEA+ satisfied Inequality (11) during the
	// push phase and skipped random walks entirely.
	EarlyTermination bool `json:"early_termination"`
	// WalkBudgetClamped reports that OptionsContext.WalkScale reduced the walk
	// count below the analysis-derived budget.  Scores are still deterministic
	// for the fixed (options, scale, seed) tuple, but the (d, εr, δ)
	// approximation guarantee is voided; the serving layer labels such
	// responses degraded.  WalkBudgetPlanned is the budget the analysis asked
	// for before clamping (0 when no clamp applied).
	WalkBudgetClamped bool  `json:"walk_budget_clamped,omitempty"`
	WalkBudgetPlanned int64 `json:"walk_budget_planned,omitempty"`
	// WalkShards is the number of shards the walk budget was split into
	// (deterministic in the budget; 0 when no walks ran).
	WalkShards int `json:"walk_shards"`
	// WalkParallelism is the number of goroutines the walk stage actually
	// used after consulting the CPU gate.  It does not affect Scores.
	WalkParallelism int `json:"walk_parallelism"`
	// PushTime, WalkTime and MergeTime are the wall-clock durations of the
	// pipeline phases: the push, the sharded walks, and the deterministic
	// walk merge plus score-vector materialization.
	PushTime  time.Duration `json:"push_time_ns"`
	WalkTime  time.Duration `json:"walk_time_ns"`
	MergeTime time.Duration `json:"merge_time_ns"`
	// PlanTime is the time between push and walks spent deciding whether to
	// walk and preparing the walks: TEA+'s Inequality-11 decision and residue
	// reduction, walk-entry collection and the alias-table rebuild.
	PlanTime time.Duration `json:"plan_time_ns"`
	// AuditTime is the time spent in the invariant audits (mass
	// conservation, the Inequality-11 recheck and the result audit); zero
	// when the query runs without an audit.  No two of the five durations
	// overlap.
	AuditTime time.Duration `json:"audit_time_ns"`
	// WorkingSetBytes estimates the memory held by the per-query structures
	// (reserve, residues, alias table, walk counters); the harness adds the
	// graph size to mirror the paper's Figure 5 accounting.
	WorkingSetBytes int64 `json:"working_set_bytes"`
}

// Estimate returns the HKPR estimate ρ̂_s[v] for node v given its degree.
func (r *Result) Estimate(v graph.NodeID, degree int32) float64 {
	return r.Scores.Score(v) + r.OffsetPerDegree*float64(degree)
}

// NormalizedEstimate returns ρ̂_s[v]/d(v) for node v given its degree.
// Nodes with zero degree return 0.
func (r *Result) NormalizedEstimate(v graph.NodeID, degree int32) float64 {
	if degree == 0 {
		return 0
	}
	return r.Estimate(v, degree) / float64(degree)
}

// TotalMass returns the sum of all sparse scores (excluding the offset); for
// an exact HKPR vector this is 1.
func (r *Result) TotalMass() float64 { return r.Scores.TotalMass() }

// SupportSize returns the number of entries in the sparse score vector
// (explicitly written zeros included, as in the former map form).
func (r *Result) SupportSize() int { return r.Scores.Len() }

// estimatedWorkingSetBytes approximates the bytes held by a dense-slab-backed
// sparse accumulator with the given number of live entries (value slab share
// plus touched-list entry).
func estimatedWorkingSetBytes(entries int) int64 {
	const bytesPerEntry = 16 // float64 value + stamp + touched-list entry
	return int64(entries) * bytesPerEntry
}

// scoreVectorWorkingSetBytes is the exact footprint of a materialized flat
// score vector with the given number of entries.
func scoreVectorWorkingSetBytes(entries int) int64 {
	return ScoreVectorHeaderBytes + int64(entries)*ScoredNodeBytes
}
