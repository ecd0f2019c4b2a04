package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"hkpr/internal/gen"
	"hkpr/internal/graph"
	"hkpr/internal/heatkernel"
)

// TestPushHeavyEstimatorBitIdentity runs the full TEA pipeline with a tight
// rmax (push-dominated) and checks the end-to-end scores stay bit-identical
// across parallelism: the serial push feeds a sharded walk stage, the only
// stage parallelism reaches.
func TestPushHeavyEstimatorBitIdentity(t *testing.T) {
	g := parallelTestGraph(t)
	opts := Options{
		Delta:       1 / float64(g.N()),
		FailureProb: 1e-4,
		// Tight rmax: big frontiers and ~300× more push operations than walk
		// steps, yet enough walks for two shards.
		RmaxScale: 0.5,
		Seed:      42,
	}

	run := func(p int) *Result {
		o := opts
		o.Parallelism = p
		res, err := TEA(g, 7, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	requireBigFrontier(t, serial.Stats)
	if serial.Stats.WalkShards < 2 {
		t.Fatalf("walk stage not sharded (%d shards); parallelism changes nothing and the test is vacuous",
			serial.Stats.WalkShards)
	}
	for _, p := range []int{2, 8} {
		par := run(p)
		if par.Stats.WalkParallelism < 2 {
			t.Fatalf("P=%d walked on %d goroutines; the parallel walk path never ran", p, par.Stats.WalkParallelism)
		}
		if len(par.Scores) != len(serial.Scores) {
			t.Fatalf("P=%d support %d != serial %d", p, len(par.Scores), len(serial.Scores))
		}
		for i, e := range serial.Scores {
			if par.Scores[i] != e {
				t.Fatalf("P=%d score at node %d: %v != serial %v", p, e.Node, par.Scores[i], e)
			}
		}
		if par.Stats.PushOperations != serial.Stats.PushOperations {
			t.Fatalf("P=%d push ops %d != serial %d", p, par.Stats.PushOperations, serial.Stats.PushOperations)
		}
	}
}

// TestInequality11IncrementalSoundness checks the O(hops) incremental bound:
// whenever HK-Push+ reports SatisfiedInequality11, the exact (rescan-based)
// NormalizedMaxSum must indeed be at or below the target, for a spread of
// graphs and thresholds.
func TestInequality11IncrementalSoundness(t *testing.T) {
	w := heatkernel.MustNew(5, 1e-15)
	sawSatisfied := false
	for _, n := range []int{60, 200, 800} {
		for _, deltaScale := range []float64{0.05, 1, 20} {
			g, err := gen.ErdosRenyi(n, 0.1, uint64(n))
			if err != nil {
				t.Fatal(err)
			}
			g, _ = graph.LargestComponent(g)
			delta := deltaScale / float64(g.N())
			if delta >= 1 {
				continue
			}
			push := HKPushPlus(g, 0, w, 0.5, delta, 8, 1<<40)
			target := 0.5 * delta
			exact := push.Residues.NormalizedMaxSum(g.Snapshot())
			if push.SatisfiedInequality11 {
				sawSatisfied = true
				if exact > target {
					t.Fatalf("n=%d δ=%g: reported satisfied but exact sum %v > target %v",
						n, delta, exact, target)
				}
			} else if exact <= target {
				// The bound is allowed to be loose only before the push
				// finishes; a completed push must be exact.
				t.Fatalf("n=%d δ=%g: exact sum %v ≤ target %v but not reported", n, delta, exact, target)
			}
		}
	}
	if !sawSatisfied {
		t.Fatal("no configuration satisfied Inequality 11; soundness test is vacuous")
	}
}

// requireBigFrontier fails the test unless some hop pushed a frontier of at
// least 256 nodes: more pushed nodes than 256 per hop level can only come
// from such a frontier.
func requireBigFrontier(t *testing.T, st Stats) {
	t.Helper()
	if st.PushedNodes < 256*int64(st.MaxHop+1) {
		t.Fatalf("no push frontier reached 256 nodes (%d pushes over %d hops); test is vacuous",
			st.PushedNodes, st.MaxHop+1)
	}
}

// TestCancellationMidPush aborts the serial push mid-flight and checks the
// context error propagates out of every layer.
func TestCancellationMidPush(t *testing.T) {
	g := parallelTestGraph(t)
	est, err := NewEstimator(g, Options{Delta: 1 / float64(g.N()), FailureProb: 1e-4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	// A tiny delta makes ω enormous and rmax tiny, so the push alone would
	// run effectively forever without cancellation.
	_, err = est.TEAContext(OptionsContext{Ctx: ctx}, 2, Options{Delta: 1e-10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("push cancellation took %v", elapsed)
	}
}
