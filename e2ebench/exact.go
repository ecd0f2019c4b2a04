package main

import (
	"fmt"
	"math"
	"sync"
)

// The paper's defaults, which hkprserver and Clusterer use when given no
// flags or options: heat t = 5, relative error εr = 0.5, δ = 1/n.
const (
	heatT  = 5.0
	epsRel = 0.5
)

// exactHKPR computes ρ_s = Σ_k e^{-t} t^k/k! · (e_s P^k) by dense power
// iteration with P = D^{-1}A, truncated once the remaining Poisson mass is
// below 1e-12.  Dense vectors keep one seed at about 0.15 s on this graph.
func exactHKPR(g *benchGraph, seed int32, t float64) []float64 {
	rho := make([]float64, g.n)
	cur := make([]float64, g.n)
	next := make([]float64, g.n)
	cur[seed] = 1
	eta := math.Exp(-t)
	mass := 0.0
	for k := 0; ; k++ {
		for v, p := range cur {
			rho[v] += eta * p
		}
		mass += eta
		if 1-mass < 1e-12 || k > 200 {
			return rho
		}
		clear(next)
		for v, p := range cur {
			if p == 0 {
				continue
			}
			nb := g.neighbors(int32(v))
			share := p / float64(len(nb))
			for _, u := range nb {
				next[u] += share
			}
		}
		cur, next = next, cur
		eta *= t / float64(k+1)
	}
}

// exactReferences computes the normalized reference ρ_s[v]/d(v) of every
// seed on two goroutines.
func exactReferences(g *benchGraph, seeds []int32) [][]float64 {
	out := make([][]float64, len(seeds))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rho := exactHKPR(g, seeds[i], heatT)
				for v := range rho {
					rho[v] /= float64(g.degree(int32(v)))
				}
				out[i] = rho
			}
		}()
	}
	for i := range seeds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// scoredNode is one top-k entry as hkprserver renders it: the normalized
// estimate ρ̂_s[v]/d(v), without TEA+'s per-degree offset εr·δ/2 (2e-6 here,
// negligible next to top-10 scores).
type scoredNode struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// refCheck is the outcome of comparing top-k entries with the reference.
type refCheck struct {
	entries    int     // entries compared
	guarded    int     // entries with ρ/d > δ, where Definition 1 bounds the error
	violations int     // guarded entries with relative error above εr
	maxRelErr  float64 // largest relative error among guarded entries
	firstBad   string
}

// check applies Definition 1 to one seed's top-k: every entry whose exact
// normalized score exceeds δ must be within relative error εr of it.
func (c *refCheck) check(seed int32, top []scoredNode, ref []float64, delta float64) {
	if len(top) == 0 {
		c.violations++
		if c.firstBad == "" {
			c.firstBad = fmt.Sprintf("seed %d returned no top-k scores", seed)
		}
		return
	}
	for _, e := range top {
		c.entries++
		if e.Node < 0 || int(e.Node) >= len(ref) {
			c.violations++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("seed %d: node %d out of range", seed, e.Node)
			}
			continue
		}
		want := ref[e.Node]
		if want <= delta {
			continue
		}
		c.guarded++
		rel := math.Abs(e.Score-want) / want
		c.maxRelErr = max(c.maxRelErr, rel)
		if rel > epsRel {
			c.violations++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("seed %d node %d: estimate %.6g vs exact %.6g (relative error %.3f > %.1f)",
					seed, e.Node, e.Score, want, rel, epsRel)
			}
		}
	}
}
