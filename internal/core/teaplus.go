package core

import (
	"fmt"
	"math"
	"time"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
	"hkpr/internal/trace"
)

// TEAPlus implements Algorithm 5, the optimized estimator.  It runs HK-Push+
// with a push budget np = ω·t/2 and hop cap K = c·log(1/(εr·δ))/log(d̄); if
// the push already satisfies Inequality (11) the reserve vector is returned
// directly (no random walks).  Otherwise every residue is reduced by
// β_k·εr·δ·d(u) (β_k proportional to the hop's residue mass), the surviving
// residues seed α·ω random walks exactly as in TEA, and an εr·δ/2·d(v)
// per-degree offset compensates the reduction, halving its worst-case error.
// The output is (d, εr, δ)-approximate with probability at least 1-pf
// (Theorem 3).
func TEAPlus(src graph.Source, seed graph.NodeID, opts Options) (*Result, error) {
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
	return teaPlusWithWeights(g, seed, opts, w, execCtl{})
}

// teaPlusWithWeights is the seam used by the harness and the serving layer to
// share one weight table across queries.  ctl carries the query's
// cancellation checkpoints and CPU gate.  Like teaWithWeights it is the
// four-stage pipeline, with the residue-reduction step between the push and
// collection stages.
func teaPlusWithWeights(g *graph.Snapshot, seed graph.NodeID, opts Options, w *heatkernel.Weights, ctl execCtl) (*Result, error) {
	if err := ctl.cc.err(); err != nil {
		return nil, err
	}
	release := acquireWorkspace(&ctl, g)
	defer release()
	pfAdj := adjustedPf(g, opts)
	omega := omegaTEAPlus(opts.EpsRel, opts.Delta, pfAdj)
	budget := int64(math.Ceil(omega * opts.T / 2))
	k := hopCap(opts.C, opts.EpsRel, opts.Delta, g.AverageDegree(), w)

	pushStart := time.Now()
	push, err := hkPushPlus(g, seed, w, opts.EpsRel, opts.Delta, k, budget, ctl)
	if err != nil {
		return nil, fmt.Errorf("core: TEA+ push phase: %w", err)
	}
	pushTime := time.Since(pushStart)
	ctl.tr.Observe(trace.StagePush, pushStart, pushTime)

	target := opts.EpsRel * opts.Delta
	// The conservation audit must run before reduceResidues below, which
	// removes residue mass by design.  When the incremental tracker claimed
	// Inequality (11), the claim is verified against a direct recomputation
	// of its left-hand side.
	var audit stageClock
	if err := ctl.audited(&audit, func(a *InvariantAudit) error {
		if err := auditMassConservation(a, ctl.ws.reserve.massUnordered(), push.Residues.massUnordered()); err != nil {
			return err
		}
		if push.SatisfiedInequality11 {
			return auditInequality11(a, push.Residues.NormalizedMaxSum(g), target)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: TEA+ push phase: %w", err)
	}

	stats := Stats{
		PushOperations: push.PushOperations,
		PushedNodes:    push.PushedNodes,
		MaxHop:         push.Residues.MaxHopWithMass(),
		PushTime:       pushTime,
	}

	// Line 7: if Inequality (11) holds the reserve already is a
	// (d, εr, δ)-approximate HKPR vector (Theorem 2) — no walks needed.  A
	// push the budget cut short has not checked its final state, so the
	// decision rescans the residues; that rescan is planning time.
	planStart := time.Now()
	if push.SatisfiedInequality11 || push.Residues.NormalizedMaxSum(g) <= target {
		if !push.SatisfiedInequality11 {
			stats.PlanTime = time.Since(planStart)
			ctl.tr.Observe(trace.StagePlan, planStart, stats.PlanTime)
		}
		mergeStart := time.Now()
		scores := push.Reserve.ToScoreVector()
		stats.MergeTime = time.Since(mergeStart)
		ctl.tr.Observe(trace.StageMerge, mergeStart, stats.MergeTime)
		if err := ctl.audited(&audit, func(a *InvariantAudit) error {
			return auditResult(a, scores, 0)
		}); err != nil {
			return nil, fmt.Errorf("core: TEA+ merge phase: %w", err)
		}
		audit.observe(ctl.tr, trace.StageAudit)
		stats.AuditTime = audit.total
		stats.EarlyTermination = true
		stats.WorkingSetBytes = scoreVectorWorkingSetBytes(len(scores)) +
			estimatedWorkingSetBytes(push.Residues.NonZeroEntries())
		return &Result{Seed: seed, Scores: scores, Stats: stats}, nil
	}

	// Lines 8-11: residue reduction.  β_k is proportional to the residue mass
	// at hop k, and Σ_k β_k = 1, so the total absolute error introduced in any
	// ρ̂[v]/d(v) is at most εr·δ (Inequality 19).
	reduceResidues(g, push.Residues, target)

	entries, weights := collectWalkEntries(push.Residues, ctl.ws)
	alpha := sumWeights(weights)
	planned := int64(math.Ceil(alpha * omega))
	nr, clamped := ctl.clampWalks(planned)
	stats.WalkBudgetClamped = clamped
	stats.WalkBudgetPlanned = plannedBudget(planned, clamped)
	plan, err := planWalkStage(ctl.ws, entries, weights, alpha, nr, opts.WalkLengthCap, walkSeed(opts.Seed, seed, teaPlusSeedMix))
	stats.PlanTime = time.Since(planStart)
	ctl.tr.Observe(trace.StagePlan, planStart, stats.PlanTime)
	if err != nil {
		return nil, fmt.Errorf("core: TEA+ walk phase: %w", err)
	}

	walkStart := time.Now()
	walked, err := runWalkStage(g, w, plan, opts.Parallelism, ctl, mergeInto(&ctl.ws.reserve))
	if err != nil {
		return nil, fmt.Errorf("core: TEA+ walk phase: %w", err)
	}
	ctl.tr.Observe(trace.StageWalk, walkStart, walked.walkTime)
	matStart := time.Now()
	scores := ctl.ws.reserve.toScoreVector()
	mergeStart, mergeTime := walked.mergeSpan(matStart)
	stats.MergeTime = mergeTime
	ctl.tr.Observe(trace.StageMerge, mergeStart, mergeTime)
	// target/2 is the per-degree offset applied below; the audit folds its
	// sign and finiteness into the total-mass check.
	if err := ctl.audited(&audit, func(a *InvariantAudit) error {
		return auditResult(a, scores, target/2)
	}); err != nil {
		return nil, fmt.Errorf("core: TEA+ merge phase: %w", err)
	}
	audit.observe(ctl.tr, trace.StageAudit)
	stats.AuditTime = audit.total

	stats.RandomWalks = walked.walks
	stats.WalkSteps = walked.steps
	stats.ResidueMassBeforeWalks = alpha
	stats.WalkShards = walked.shards
	stats.WalkParallelism = walked.workers
	stats.WalkTime = walked.walkTime
	stats.WorkingSetBytes = scoreVectorWorkingSetBytes(len(scores)) +
		estimatedWorkingSetBytes(push.Residues.NonZeroEntries()) +
		int64(len(entries))*24

	return &Result{
		Seed:   seed,
		Scores: scores,
		// Lines 18-19: add εr·δ/2·d(v) to every estimate.  Stored as a
		// per-degree offset so it costs O(1); it does not affect the
		// normalized ranking used by the sweep.
		OffsetPerDegree: target / 2,
		Stats:           stats,
	}, nil
}

// reduceResidues applies the residue reduction of Algorithm 5 lines 8-11:
// every residue r^(k)[u] is decreased by β_k·εr·δ·d(u) (floored at zero),
// where β_k = hop-k residue mass / total residue mass.  Hop masses are
// computed once up front (each HopMass call sorts its hop's nodes for
// determinism, so recomputing per use would double that cost).
func reduceResidues(g *graph.Snapshot, res *ResidueVectors, target float64) {
	masses := make([]float64, res.NumHops())
	total := 0.0
	for k := range masses {
		masses[k] = res.HopMass(k)
		total += masses[k]
	}
	if total <= 0 {
		return
	}
	for k := 0; k < res.NumHops(); k++ {
		hopMass := masses[k]
		if hopMass == 0 {
			continue
		}
		beta := hopMass / total
		reduction := beta * target
		hop := &res.levels[k]
		for _, v := range hop.touched {
			r := hop.vals[v]
			if r == 0 {
				continue
			}
			nr := r - reduction*float64(g.Degree(v))
			if nr <= 0 {
				nr = 0
			}
			hop.vals[v] = nr
		}
	}
}

// TEAPlusNoReduction is an ablation variant of TEA+ that skips the residue
// reduction (and therefore the offset): it quantifies how much of TEA+'s
// speed-up comes from the reduction versus the budgeted push.  It keeps the
// exact same accuracy analysis as TEA applied to HK-Push+'s output.
func TEAPlusNoReduction(src graph.Source, seed graph.NodeID, opts Options) (*Result, error) {
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
	pfAdj := adjustedPf(g, opts)
	omega := omegaTEAPlus(opts.EpsRel, opts.Delta, pfAdj)
	budget := int64(math.Ceil(omega * opts.T / 2))
	k := hopCap(opts.C, opts.EpsRel, opts.Delta, g.AverageDegree(), w)

	ctl := execCtl{}
	release := acquireWorkspace(&ctl, g)
	defer release()

	pushStart := time.Now()
	push, err := hkPushPlus(g, seed, w, opts.EpsRel, opts.Delta, k, budget, ctl)
	if err != nil {
		return nil, err
	}
	pushTime := time.Since(pushStart)

	entries, weights := collectWalkEntries(push.Residues, ctl.ws)
	alpha := sumWeights(weights)
	nr := int64(math.Ceil(alpha * omega))
	plan, err := planWalkStage(ctl.ws, entries, weights, alpha, nr, opts.WalkLengthCap, walkSeed(opts.Seed, seed, teaPlusSeedMix))
	if err != nil {
		return nil, err
	}
	walked, err := runWalkStage(g, w, plan, opts.Parallelism, ctl, mergeInto(&ctl.ws.reserve))
	if err != nil {
		return nil, err
	}
	scores := ctl.ws.reserve.toScoreVector()
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
			WalkShards:             walked.shards,
			WalkParallelism:        walked.workers,
			PushTime:               pushTime,
			WalkTime:               walked.walkTime,
			MergeTime:              walked.mergeTime,
			WorkingSetBytes: scoreVectorWorkingSetBytes(len(scores)) +
				estimatedWorkingSetBytes(push.Residues.NonZeroEntries()),
		},
	}, nil
}
