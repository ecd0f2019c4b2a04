package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
)

// Every input the benchmark sends is a pure function of its seed (the
// workload seed or datasetSeed): each stream draws from its own PCG stream
// keyed by (seed, label, index).
func rngFor(seed uint64, label string, idx int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewPCG(seed, h.Sum64()^uint64(idx)*0x9e3779b97f4a7c15))
}

const (
	sessions       = 2   // closed-loop client sessions, at most 2 connections
	zipfExponent   = 1.3 // explore popularity skew
	exploreWarmup  = 100 // untimed warm-up requests per explore session
	exploreDrift   = 20  // explore requests per session between ranking shifts
	coldWarmup     = 4   // untimed warm-up requests per cold session
	batchSeeds     = 4   // seeds per LocalClusterBatch call
	refSeeds       = 4   // seeds checked against the exact reference per run
	updateEdges    = 1   // edges per POST /update
	readsPerUpdate = 16  // churn: one POST /update per this many reads
)

// Stream phases of the cold and batch workloads.  Warm-up, the untraced
// window and the traced window draw from disjoint seed lists, so a traced
// window sees the same traffic mix as an untraced one without replaying its
// requests, and its first requests are fixed by the seed alone.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTraced
)

// zipf samples popularity ranks 0..n-1 with P(r) ∝ (r+1)^-s by inverse CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// exploreStream is one session's interactive-exploration stream: Zipf draws
// over a popularity ranking of the community members.  The ranking drifts:
// every exploreDrift requests of the session, each node moves up one rank
// and a new node enters at the bottom.  A fixed ranking made a run's p50_ms
// and qps hinge on the two or three seeds that happened to rank first (their
// vector sizes set the hit latency and how many results fit in the cache);
// with the drift a run samples dozens of head seeds.  The stream is one
// sequence per session: warm-up, untimed window and traced window consume
// it in turn.
type exploreStream struct {
	rank []int32 // popularity rank → node, before drift
	z    *zipf
	r    *rand.Rand
	i    int // requests drawn so far
}

// exploreRanking is the run's popularity ranking: a seeded permutation of the
// nodes (every LFR node belongs to a planted community).
func exploreRanking(seed uint64, n int) []int32 {
	perm := rngFor(seed, "explore/rank", 0).Perm(n)
	rank := make([]int32, n)
	for i, v := range perm {
		rank[i] = int32(v)
	}
	return rank
}

func newExploreStream(seed uint64, rank []int32, z *zipf, session int) *exploreStream {
	return &exploreStream{rank: rank, z: z, r: rngFor(seed, "explore/stream", session)}
}

func (s *exploreStream) next() int32 {
	r := (s.z.rank(s.r) + s.i/exploreDrift) % len(s.rank)
	s.i++
	return s.rank[r]
}

// coldStream hands out distinct, uniformly drawn seeds: one seeded
// permutation of the nodes, a disjoint segment per phase, interleaved across
// sessions.
type coldStream struct {
	perm    []int
	pos     int
	session int
}

func coldPermutation(seed uint64, n int) []int { return rngFor(seed, "cold", 0).Perm(n) }

func newColdStream(perm []int, session, phase int) *coldStream {
	seg := len(perm) / 3
	return &coldStream{perm: perm[phase*seg : (phase+1)*seg], session: session}
}

func (s *coldStream) next() (int32, bool) {
	i := s.pos*sessions + s.session
	if i >= len(s.perm) {
		return 0, false
	}
	s.pos++
	return int32(s.perm[i]), true
}

// updatePlan returns the edges toggled by post pair j of the update log
// drawn from seed: post 2j removes them and post 2j+1 adds the same edges
// back, so every batch validates.
func updatePlan(seed uint64, edges [][2]int32, j int) [][2]int32 {
	r := rngFor(seed, "churn/edges", j)
	picked := make(map[int]bool, updateEdges)
	out := make([][2]int32, 0, updateEdges)
	for len(out) < updateEdges {
		i := r.IntN(len(edges))
		if !picked[i] {
			picked[i] = true
			out = append(out, edges[i])
		}
	}
	return out
}

// distinctNodes draws k distinct uniform nodes from stream (label, idx).
func distinctNodes(seed uint64, label string, idx, n, k int) []int32 {
	r := rngFor(seed, label, idx)
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		v := int32(r.IntN(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// batchList is the j-th seed list of the batch workload in the given phase.
// The batch workload draws its lists from datasetSeed: TEA's sweep returns
// either the seed's community or a cluster spanning a third of the graph, so
// a run's mean F1 over lists drawn from the workload seed varied 14% across
// seeds.
func batchList(seed uint64, n, phase, j int) []int32 {
	return distinctNodes(seed, "batch", phase<<24|j, n, batchSeeds)
}

// referenceSeeds are the seeds whose top-10 scores the run checks against
// the exact power-method reference.
func referenceSeeds(seed uint64, n int) []int32 {
	return distinctNodes(seed, "reference", 0, n, refSeeds)
}
