package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"
)

// clusterReply is the part of a /cluster response the benchmark checks and
// scores.
type clusterReply struct {
	Cluster     []int32       `json:"cluster"`
	Conductance float64       `json:"conductance"`
	Scores      []scoredNode  `json:"scores"`
	Cached      bool          `json:"cached"`
	Coalesced   bool          `json:"coalesced"`
	Pushes      int64         `json:"push_operations"`
	Walks       int64         `json:"random_walks"`
	Trace       *serverRecord `json:"trace"`
}

// serverRecord is a trace record as hkprserver returns it inline and at
// /debug/queries.
type serverRecord struct {
	Start   string `json:"start"`
	Method  string `json:"method"`
	TotalNS int64  `json:"total_ns"`
	Stages  []struct {
		Stage      string `json:"stage"`
		StartNS    int64  `json:"start_ns"`
		DurationNS int64  `json:"duration_ns"`
	} `json:"stages"`
	Stats *struct {
		EarlyTermination bool `json:"early_termination"`
	} `json:"stats"`
}

// query is one measured /cluster request.
type query struct {
	index int // position in its session's measured stream
	seed  int32
	rt    time.Duration
	done  time.Duration // completion, from the start of the window
	bytes int
	err   string // non-empty when the request failed the gate
	reply clusterReply
	f1    float64
}

// seedless reports whether the cluster leaves out its own seed.
func (q *query) seedless() bool { return !slices.Contains(q.reply.Cluster, q.seed) }

// executed reports whether this response came from its own execution rather
// than the cache or another caller's execution.
func (q *query) executed() bool { return !q.reply.Cached && !q.reply.Coalesced }

// f1Score is the F1 of cluster against the planted community of seed.
func f1Score(g *benchGraph, cluster []int32, seed int32) float64 {
	c := g.community[seed]
	hit := 0
	for _, v := range cluster {
		if v >= 0 && int(v) < g.n && g.community[v] == c {
			hit++
		}
	}
	if hit == 0 {
		return 0
	}
	p := float64(hit) / float64(len(cluster))
	r := float64(hit) / float64(len(g.members[c]))
	return 2 * p * r / (p + r)
}

// clusterQuery sends one /cluster request and applies the per-query gate:
// status 200 and a non-empty cluster of in-range nodes with a conductance in
// [0, 1].
func clusterQuery(s *server, g *benchGraph, seed int32, params string) query {
	q := query{seed: seed}
	status, body, rt, err := s.get(fmt.Sprintf("/cluster?seed=%d%s", seed, params))
	q.rt, q.bytes = rt, len(body)
	switch {
	case err != nil:
		q.err = err.Error()
	case status != http.StatusOK:
		q.err = fmt.Sprintf("seed %d: status %d: %.200s", seed, status, body)
	default:
		if err := json.Unmarshal(body, &q.reply); err != nil {
			q.err = fmt.Sprintf("seed %d: decoding response: %v", seed, err)
			break
		}
		q.err = checkCluster(g.n, seed, q.reply.Cluster, q.reply.Conductance)
		q.f1 = f1Score(g, q.reply.Cluster, seed)
	}
	return q
}

// checkCluster validates one returned cluster.  It does not require the
// cluster to contain its seed: the sweep ranks nodes by ρ/d, so a seed of
// high degree can rank below low-degree members of its own community, and
// the lowest-conductance prefix can stop before it.  Such clusters are
// counted and reported instead (seedless).
func checkCluster(n int, seed int32, cluster []int32, conductance float64) string {
	if len(cluster) == 0 {
		return fmt.Sprintf("seed %d: empty cluster", seed)
	}
	for _, v := range cluster {
		if v < 0 || int(v) >= n {
			return fmt.Sprintf("seed %d: cluster node %d out of range", seed, v)
		}
	}
	if !(conductance >= 0 && conductance <= 1) {
		return fmt.Sprintf("seed %d: conductance %g outside [0, 1]", seed, conductance)
	}
	return ""
}

// seedSource yields a session's next seed; false ends the session early.
type seedSource func() (int32, bool)

// closedLoop runs one closed-loop session per source until the window ends:
// each session sends its next request only after the previous one returned.
// It returns the queries in session order and the wall time from the start
// of the window to the last response.
func closedLoop(s *server, g *benchGraph, sources []seedSource, params string, window time.Duration) ([]query, time.Duration) {
	start := time.Now()
	end := start.Add(window)
	out := make([][]query, len(sources))
	var wg sync.WaitGroup
	for i, next := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				seed, ok := next()
				if !ok {
					return
				}
				q := clusterQuery(s, g, seed, params)
				q.index, q.done = len(out[i]), time.Since(start)
				out[i] = append(out[i], q)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(out...), time.Since(start)
}

// update is one POST /update.
type update struct {
	rt        time.Duration // from the trigger to the full response
	late      time.Duration // how long the post waited for the writer
	err       string
	elapsedNS int64
}

// updateReply is the part of the /update response the benchmark reads.
type updateReply struct {
	ElapsedNS int64 `json:"elapsed_ns"`
}

// writer posts one update batch per trigger, on its own connection, until
// triggers is closed.  A post's latency is timed from its trigger, so a
// slow post counts against the posts queued behind it.  With trace set, it
// drains /debug/queries after every fifth post so the trace ring never
// evicts an update record before it is read, and returns only the records
// of its own posts.
func writer(s *server, seed uint64, g *benchGraph, firstPost int, triggers <-chan time.Time, trace bool, records map[string]serverRecord) []update {
	earlier := map[string]serverRecord{}
	if trace {
		collectUpdateRecords(s, earlier)
	}
	var out []update
	for due := range triggers {
		post := firstPost + len(out)
		edges := updatePlan(seed, g.edges, post/2)
		body := map[string][][2]int32{"remove_edges": edges}
		if post%2 == 1 {
			body = map[string][][2]int32{"add_edges": edges}
		}
		u := update{late: time.Since(due)}
		status, resp, _, err := s.post("/update", body)
		u.rt = time.Since(due)
		var reply updateReply
		switch {
		case err != nil:
			u.err = err.Error()
		case status != http.StatusOK:
			u.err = fmt.Sprintf("update %d: status %d: %.200s", post, status, resp)
		case json.Unmarshal(resp, &reply) != nil:
			u.err = fmt.Sprintf("update %d: undecodable response", post)
		}
		u.elapsedNS = reply.ElapsedNS
		out = append(out, u)
		if trace && len(out)%5 == 0 {
			collectUpdateRecords(s, records)
		}
	}
	if trace {
		collectUpdateRecords(s, records)
		for k := range earlier {
			delete(records, k)
		}
	}
	return out
}

// collectUpdateRecords adds the update records of the /debug/queries ring to
// records, keyed by start time so repeated reads count each once.
func collectUpdateRecords(s *server, records map[string]serverRecord) {
	var ring struct {
		Queries []serverRecord `json:"queries"`
	}
	if err := s.getJSON("/debug/queries", &ring); err != nil {
		return // a missed read shows up as fewer update records
	}
	for _, r := range ring.Queries {
		if r.Method == "update" {
			records[r.Start] = r
		}
	}
}
