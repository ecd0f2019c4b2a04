// Package core implements the paper's primary contribution: the TEA and TEA+
// algorithms for estimating heat kernel PageRank (HKPR) with a probabilistic
// (d, εr, δ)-approximation guarantee, together with the HK-Push / HK-Push+
// deterministic push routines and the Poisson-tail random walk
// (k-RandomWalk) they are combined with.
//
// The entry points are TEA and TEAPlus.  Both take an undirected graph, a
// seed node and an Options value, and return a sparse approximate HKPR vector
// whose degree-normalized entries satisfy, with probability at least 1-pf:
//
//	|ρ̂[v]/d(v) − ρ[v]/d(v)| ≤ εr · ρ[v]/d(v)   when ρ[v]/d(v) > δ
//	|ρ̂[v]/d(v) − ρ[v]/d(v)| ≤ εr · δ            otherwise.
//
// (Definition 1 in the paper.)  The expected running time of both algorithms
// is O(t·log(n/pf)/(εr²·δ)).
package core

import (
	"fmt"
	"math"

	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
)

// Default parameter values; they mirror the experimental setup of §7.1/7.2.
const (
	DefaultHeat        = 5.0  // heat constant t
	DefaultEpsRel      = 0.5  // relative error threshold εr
	DefaultFailureProb = 1e-6 // failure probability pf
	DefaultC           = 2.5  // TEA+ hop-cap constant c (tuned in Figure 2)
)

// Options configures TEA, TEA+ and the HKPR baselines that share the same
// (d, εr, δ) parameterization.
type Options struct {
	// T is the heat constant t (> 0).  Defaults to DefaultHeat.
	T float64
	// EpsRel is the relative error threshold εr in (0, 1].  Defaults to
	// DefaultEpsRel.
	EpsRel float64
	// Delta is the normalized-HKPR threshold δ in (0, 1).  Values above it
	// get relative error guarantees; values below it get absolute error
	// εr·δ.  A common choice is 1/n.  Required (no default).
	Delta float64
	// FailureProb is the failure probability pf in (0, 1).  Defaults to
	// DefaultFailureProb.
	FailureProb float64
	// C is the constant used by TEA+ to pick the push hop cap
	// K = c·log(1/(εr·δ))/log(d̄) (paper Appendix A).  Defaults to DefaultC.
	C float64
	// RmaxScale scales TEA's residue threshold rmax = RmaxScale/(ω·t).  The
	// paper tunes rmax per dataset (§7.3); 1 balances push and walk cost.
	// Defaults to 1.
	RmaxScale float64
	// Seed seeds the random walks.  The same seed reproduces the same output
	// bit-for-bit, for any Parallelism.  When merging per-query overrides an
	// Estimator cannot tell an explicit Seed of 0 from "unset"; set SeedSet
	// (or use WithSeed) to request seed 0 explicitly.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so a per-query override of
	// Seed == 0 is honored instead of inheriting the estimator's seed.
	SeedSet bool
	// Parallelism is the maximum number of goroutines one query's
	// Monte-Carlo walk shards may use; the push is always one serial loop.
	// 0 or 1 runs the walks serially; the result is bit-identical for a
	// given Seed regardless of this knob, because walks are split over a
	// fixed set of shards with per-shard RNGs derived from (Seed, shard
	// index) and merged in (shard, walk) order.  When the query runs under a
	// serving engine the effective parallelism is further limited by the
	// shared CPU-token budget (OptionsContext.CPU).
	Parallelism int
	// AdjustedFailureProb optionally carries a precomputed p'_f (Eq. 6).  If
	// zero it is computed from the graph, which costs one pass over the
	// degree sequence; the dataset registry caches it.
	AdjustedFailureProb float64
	// MaxPushHops caps the number of hop levels HK-Push (TEA) will expand.
	// Zero means "up to the heat-kernel truncation hop", which keeps the
	// ignored mass below the approximation thresholds.
	MaxPushHops int
	// WalkLengthCap bounds individual random walk lengths.  Zero means the
	// heat-kernel truncation hop; walks effectively never reach it.
	WalkLengthCap int
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.T == 0 {
		o.T = DefaultHeat
	}
	if o.EpsRel == 0 {
		o.EpsRel = DefaultEpsRel
	}
	if o.FailureProb == 0 {
		o.FailureProb = DefaultFailureProb
	}
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.RmaxScale == 0 {
		o.RmaxScale = 1
	}
	return o
}

// Validate checks that the options describe a legal (d, εr, δ) approximation
// problem.
func (o Options) Validate() error {
	if !(o.T > 0) || math.IsInf(o.T, 0) || math.IsNaN(o.T) {
		return fmt.Errorf("core: heat constant t must be positive, got %v", o.T)
	}
	if !(o.EpsRel > 0 && o.EpsRel <= 1) {
		return fmt.Errorf("core: relative error εr must be in (0,1], got %v", o.EpsRel)
	}
	if !(o.Delta > 0 && o.Delta < 1) {
		return fmt.Errorf("core: threshold δ must be in (0,1), got %v", o.Delta)
	}
	if !(o.FailureProb > 0 && o.FailureProb < 1) {
		return fmt.Errorf("core: failure probability pf must be in (0,1), got %v", o.FailureProb)
	}
	if o.C < 0 {
		return fmt.Errorf("core: hop-cap constant c must be non-negative, got %v", o.C)
	}
	if o.RmaxScale < 0 {
		return fmt.Errorf("core: rmax scale must be non-negative, got %v", o.RmaxScale)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: parallelism must be non-negative, got %v", o.Parallelism)
	}
	return nil
}

// WithSeed returns a copy of o with the RNG seed explicitly set to s, marking
// it so that per-query override merging honors s even when it is 0.
func (o Options) WithSeed(s uint64) Options {
	o.Seed = s
	o.SeedSet = true
	return o
}

// validateSeed checks the seed node is a valid non-isolated node of g.
func validateSeed(g *graph.Snapshot, s graph.NodeID) error {
	if s < 0 || int(s) >= g.N() {
		return fmt.Errorf("core: seed node %d out of range [0,%d)", s, g.N())
	}
	if g.Degree(s) == 0 {
		return fmt.Errorf("core: seed node %d is isolated", s)
	}
	return nil
}

// omega returns the walk-count parameter ω used by TEA:
//
//	ω = 2(1+εr/3)·ln(1/p'_f) / (εr²·δ).
func omegaTEA(epsRel, delta, adjustedPf float64) float64 {
	return 2 * (1 + epsRel/3) * math.Log(1/adjustedPf) / (epsRel * epsRel * delta)
}

// omegaTEAPlus returns the walk-count parameter ω used by TEA+:
//
//	ω = 8(1+εr/6)·ln(1/p'_f) / (εr²·δ).
func omegaTEAPlus(epsRel, delta, adjustedPf float64) float64 {
	return 8 * (1 + epsRel/6) * math.Log(1/adjustedPf) / (epsRel * epsRel * delta)
}

// hopCap returns the TEA+ hop cap K = c·log(1/(εr·δ))/log(d̄) (Appendix A),
// clamped to at least 1 and at most the heat-kernel truncation hop.
func hopCap(c, epsRel, delta, avgDegree float64, w *heatkernel.Weights) int {
	logD := math.Log(avgDegree)
	if logD < math.Ln2 {
		logD = math.Ln2
	}
	k := int(math.Ceil(c * math.Log(1/(epsRel*delta)) / logD))
	if k < 1 {
		k = 1
	}
	if max := w.TruncationHop(1e-12); k > max {
		k = max
	}
	return k
}

// adjustedPf resolves the p'_f to use: a caller-provided cached value, or the
// graph-derived one from Eq. 6.
func adjustedPf(g *graph.Snapshot, o Options) float64 {
	if o.AdjustedFailureProb > 0 && o.AdjustedFailureProb < 1 {
		return o.AdjustedFailureProb
	}
	return g.AdjustedFailureProbability(o.FailureProb)
}
