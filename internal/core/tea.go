package core

import (
	"fmt"
	"math"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
	"hkpr/internal/trace"
)

// RNG stream separators: each estimator mixes its own constant into the walk
// seed so the same (Options.Seed, query node) pair gives the three estimators
// independent walk streams.
const (
	teaSeedMix        = 0x9e3779b97f4a7c15
	teaPlusSeedMix    = 0x2545f4914f6cdd1d
	monteCarloSeedMix = 0x517cc1b727220a95
)

// walkSeed derives the query-level walk seed the shard RNGs are fanned out
// from.
func walkSeed(optsSeed uint64, node graph.NodeID, mix uint64) uint64 {
	return optsSeed ^ uint64(node)*mix
}

// TEA implements Algorithm 3, the first-cut two-phase estimator: an HK-Push
// pass with residue threshold rmax = RmaxScale/(ω·t) produces a reserve vector
// (a lower bound of the exact HKPR vector, Lemma 1) plus hop-indexed residue
// vectors, and α·ω Poisson-tail random walks seeded from the residues refine
// the reserve into a (d, εr, δ)-approximate HKPR vector with probability at
// least 1-pf (Theorem 1).
func TEA(src graph.Source, seed graph.NodeID, opts Options) (*Result, error) {
	g := src.Snapshot()
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := validateSeed(g, seed); err != nil {
		return nil, err
	}
	w, err := heatkernel.New(opts.T, heatkernel.DefaultTailEpsilon)
	if err != nil {
		return nil, err
	}
	return teaWithWeights(g, seed, opts, w, execCtl{})
}

// teaWithWeights is the seam used by the benchmark harness and the serving
// layer to reuse one weight table across many queries with the same heat
// constant.  ctl carries the query's cancellation checkpoints and CPU gate.
//
// The body is the four-stage pipeline: push → collect → sharded walks →
// deterministic merge.
func teaWithWeights(g *graph.Snapshot, seed graph.NodeID, opts Options, w *heatkernel.Weights, ctl execCtl) (*Result, error) {
	if err := ctl.cc.err(); err != nil {
		return nil, err
	}
	release := acquireWorkspace(&ctl, g)
	defer release()
	pfAdj := adjustedPf(g, opts)
	omega := omegaTEA(opts.EpsRel, opts.Delta, pfAdj)
	rmax := opts.RmaxScale / (omega * opts.T)

	maxHops := opts.MaxPushHops
	if maxHops <= 0 {
		maxHops = w.TruncationHop(1e-12)
	}

	// Stage 1: push.
	pushStart := time.Now()
	push, err := hkPush(g, seed, w, rmax, maxHops, ctl)
	if err != nil {
		return nil, fmt.Errorf("core: TEA push phase: %w", err)
	}
	pushTime := time.Since(pushStart)
	ctl.tr.Observe(trace.StagePush, pushStart, pushTime)
	// Push only moves mass between reserve and residues, so their sum must
	// still be the unit injected at the seed.
	var audit stageClock
	if err := ctl.audited(&audit, func(a *InvariantAudit) error {
		return auditMassConservation(a, ctl.ws.reserve.massUnordered(), push.Residues.massUnordered())
	}); err != nil {
		return nil, fmt.Errorf("core: TEA push phase: %w", err)
	}

	// Stage 2: residual/source collection.  α is summed over the sorted
	// entries, the one pass that already exists for the alias table.
	planStart := time.Now()
	entries, weights := collectWalkEntries(push.Residues, ctl.ws)
	alpha := sumWeights(weights)
	planned := int64(math.Ceil(alpha * omega))
	nr, clamped := ctl.clampWalks(planned)
	plan, err := planWalkStage(ctl.ws, entries, weights, alpha, nr, opts.WalkLengthCap, walkSeed(opts.Seed, seed, teaSeedMix))
	planTime := time.Since(planStart)
	ctl.tr.Observe(trace.StagePlan, planStart, planTime)
	if err != nil {
		return nil, fmt.Errorf("core: TEA walk phase: %w", err)
	}

	// Stages 3-4: sharded Monte-Carlo walks, each round merged into the
	// reserve slab in (shard, walk) order; then one materialization into the
	// public flat score-vector form — the only point the sparse vector leaves
	// the pooled workspace, and the query's only O(support) allocation.
	walkStart := time.Now()
	walked, err := runWalkStage(g, w, plan, opts.Parallelism, ctl, mergeInto(&ctl.ws.reserve))
	if err != nil {
		return nil, fmt.Errorf("core: TEA walk phase: %w", err)
	}
	ctl.tr.Observe(trace.StageWalk, walkStart, walked.walkTime)
	matStart := time.Now()
	scores := ctl.ws.reserve.toScoreVector()
	mergeStart, mergeTime := walked.mergeSpan(matStart)
	ctl.tr.Observe(trace.StageMerge, mergeStart, mergeTime)
	if err := ctl.audited(&audit, func(a *InvariantAudit) error {
		return auditResult(a, scores, 0)
	}); err != nil {
		return nil, fmt.Errorf("core: TEA merge phase: %w", err)
	}
	audit.observe(ctl.tr, trace.StageAudit)

	return &Result{
		Seed:   seed,
		Scores: scores,
		Stats: Stats{
			PushOperations:         push.PushOperations,
			PushedNodes:            push.PushedNodes,
			RandomWalks:            walked.walks,
			WalkSteps:              walked.steps,
			ResidueMassBeforeWalks: alpha,
			MaxHop:                 push.Residues.MaxHopWithMass(),
			WalkBudgetClamped:      clamped,
			WalkBudgetPlanned:      plannedBudget(planned, clamped),
			WalkShards:             walked.shards,
			WalkParallelism:        walked.workers,
			PushTime:               pushTime,
			WalkTime:               walked.walkTime,
			MergeTime:              mergeTime,
			PlanTime:               planTime,
			AuditTime:              audit.total,
			WorkingSetBytes: scoreVectorWorkingSetBytes(len(scores)) +
				estimatedWorkingSetBytes(push.Residues.NonZeroEntries()) +
				int64(len(entries))*24,
		},
	}, nil
}

// plannedBudget reports the pre-clamp walk budget for Stats, 0 when no clamp
// applied (keeping the field omitempty in the common case).
func plannedBudget(planned int64, clamped bool) int64 {
	if !clamped {
		return 0
	}
	return planned
}

// MonteCarloOnly runs the pure Monte-Carlo estimator described in §3: nr
// Poisson-length random walks from the seed, each end node receiving 1/nr.
// It shares the (d, εr, δ) parameterization with TEA/TEA+, using
// nr = 2(1+εr/3)·log(n/pf)/(εr²·δ) walks, and is both the building block the
// paper motivates TEA with and the Monte-Carlo baseline of the experiments.
//
// It lives in this package (rather than baselines) because TEA degenerates to
// it when the push phase is disabled, which the ablation benchmarks exploit.
func MonteCarloOnly(src graph.Source, seed graph.NodeID, opts Options) (*Result, error) {
	g := src.Snapshot()
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := validateSeed(g, seed); err != nil {
		return nil, err
	}
	w, err := heatkernel.New(opts.T, heatkernel.DefaultTailEpsilon)
	if err != nil {
		return nil, err
	}
	return monteCarloWithWeights(g, seed, opts, w, execCtl{})
}

// monteCarloWithWeights is the weight-table-sharing, cancellable seam behind
// MonteCarloOnly, used by the Estimator so serving workloads do not rebuild
// the Poisson table on every query.  It degenerates the pipeline to a walk
// plan with the seed node as the single hop-0 source of weight 1, which gives
// the Monte-Carlo estimator the same sharded, parallel walk stage as TEA and
// TEA+.
func monteCarloWithWeights(g *graph.Snapshot, seed graph.NodeID, opts Options, w *heatkernel.Weights, ctl execCtl) (*Result, error) {
	if err := ctl.cc.err(); err != nil {
		return nil, err
	}
	release := acquireWorkspace(&ctl, g)
	defer release()
	// The plain Monte-Carlo analysis uses a union bound over all n nodes, so
	// the walk count uses log(n/pf) rather than log(1/p'_f).
	planned := int64(math.Ceil(2 * (1 + opts.EpsRel/3) * math.Log(float64(g.N())/opts.FailureProb) /
		(opts.EpsRel * opts.EpsRel * opts.Delta)))
	nr, clamped := ctl.clampWalks(planned)

	planStart := time.Now()
	ws := ctl.ws
	entries := append(ws.entries[:0], walkEntry{node: seed, hop: 0, residue: 1})
	weights := append(ws.weights[:0], 1)
	ws.entries, ws.weights = entries, weights
	plan, err := planWalkStage(ws, entries, weights, 1, nr, opts.WalkLengthCap, walkSeed(opts.Seed, seed, monteCarloSeedMix))
	planTime := time.Since(planStart)
	ctl.tr.Observe(trace.StagePlan, planStart, planTime)
	if err != nil {
		return nil, fmt.Errorf("core: Monte-Carlo walk phase: %w", err)
	}

	walkStart := time.Now()
	walked, err := runWalkStage(g, w, plan, opts.Parallelism, ctl, mergeInto(&ws.reserve))
	if err != nil {
		return nil, fmt.Errorf("core: Monte-Carlo walk phase: %w", err)
	}
	ctl.tr.Observe(trace.StageWalk, walkStart, walked.walkTime)

	matStart := time.Now()
	scores := ws.reserve.toScoreVector()
	mergeStart, mergeTime := walked.mergeSpan(matStart)
	ctl.tr.Observe(trace.StageMerge, mergeStart, mergeTime)
	var audit stageClock
	if err := ctl.audited(&audit, func(a *InvariantAudit) error {
		return auditResult(a, scores, 0)
	}); err != nil {
		return nil, fmt.Errorf("core: Monte-Carlo merge phase: %w", err)
	}
	audit.observe(ctl.tr, trace.StageAudit)

	return &Result{
		Seed:   seed,
		Scores: scores,
		Stats: Stats{
			RandomWalks:            walked.walks,
			WalkSteps:              walked.steps,
			ResidueMassBeforeWalks: 1,
			WalkBudgetClamped:      clamped,
			WalkBudgetPlanned:      plannedBudget(planned, clamped),
			WalkShards:             walked.shards,
			WalkParallelism:        walked.workers,
			WalkTime:               walked.walkTime,
			MergeTime:              mergeTime,
			PlanTime:               planTime,
			AuditTime:              audit.total,
			WorkingSetBytes:        scoreVectorWorkingSetBytes(len(scores)),
		},
	}, nil
}
