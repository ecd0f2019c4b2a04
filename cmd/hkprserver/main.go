// Command hkprserver exposes local clustering queries over HTTP, the shape of
// deployment the paper's interactive-exploration scenario (§1, "Bob explores
// Twitter around Elon Musk") calls for: the graph is loaded once, the
// per-graph setup is amortized, and each query returns within interactive
// latency.  Requests are served through the hkpr.Engine serving subsystem —
// a worker pool with bounded admission control, an LRU result cache with
// request coalescing, and per-request cancellation tied to the client
// connection.
//
// Endpoints:
//
//	GET /healthz                 → 200 ok
//	GET /stats                   → graph + serving statistics (JSON)
//	GET /metrics                 → serving metrics (Prometheus text format)
//	POST /update                 → apply one graph update batch as a new
//	                               epoch (JSON body: {"add_nodes":N,
//	                               "add_edges":[[u,v],…],
//	                               "remove_edges":[[u,v],…]}); all-or-nothing
//	                               validation (self-loops, duplicates, absent
//	                               removals → 400), returns the new epoch and
//	                               the scoped cache-invalidation summary
//	GET /debug/queries           → the most recently completed query traces,
//	                               newest first (JSON; ring sized by
//	                               -trace-buffer)
//	GET /cluster?seed=17         → local cluster of node 17 (JSON)
//	GET /cluster?seed=17&method=tea&eps=0.3
//	GET /cluster?seed=17&nocache=1
//	GET /cluster?seed=17&topk=10    → additionally render the 10 best
//	                                  normalized HKPR scores (flat vector,
//	                                  truncated per request; the cached full
//	                                  vector is shared zero-copy)
//	GET /cluster?seed=17&sweepk=50  → sweep only the 50 best-ranked nodes
//	                                  (bounded conductance scan; like topk, a
//	                                  per-request rendering over the shared
//	                                  cached vector)
//	GET /cluster?seed=17&trace=1    → include the per-stage execution trace
//	                                  inline in the response
//
// Cluster responses carry cached/coalesced flags, the chosen per-query
// parallelism, and queue-wait/elapsed timings alongside the cluster itself.
// Overload is reported as 503 (admission queue full — back off and retry) with
// a Retry-After header derived from the engine's drain estimate, as is a
// server that is shutting down; a query exceeding its deadline returns 504,
// and -strict-invariants turns a failed self-verification into a 500.
//
// Under overload pressure the engine degrades before it sheds: responses
// served in a reduced mode carry "degraded":"stale" (a radius-invalidated
// cached result at its pre-update epoch, revalidating in the background) or
// "degraded":"clamped" (computed under reduced walk/sweep budgets, echoed in
// "effective").  -pressure-off disables the overload controller entirely.
// On SIGINT/SIGTERM the server stops admission and drains: every admitted
// query finishes (up to -drain-timeout) before the process exits.
//
// Tuning flags:
//
//	-workers N     concurrent query executions (default GOMAXPROCS)
//	-queue N       admission-queue depth; excess load is shed (default 4×workers)
//	-cache-mb N    result-cache budget in MiB; 0 disables (default 64)
//	-timeout D     per-query execution deadline, e.g. 5s; 0 disables (default 10s)
//	-parallel N    per-query walk-shard parallelism (the push is serial);
//	               results are bit-identical at any value, so it is purely a
//	               latency knob (default 0 = serial unless -adaptive)
//	-adaptive      choose per-query parallelism from live load instead: idle
//	               engine → whole CPU budget per query, saturated queue → serial
//	               (an explicit -parallel value caps the adaptive choice;
//	               leaving it unset leaves adaptivity uncapped)
//	-adaptive-ewma α   smooth the queue depth the adaptive choice sees with an
//	               exponentially weighted moving average (α ∈ (0,1], default 1
//	               = instantaneous); small α stops P oscillating under bursty
//	               load
//	-cpu-tokens N  shared CPU budget for workers + walk shards
//	               (default max(workers, GOMAXPROCS))
//	-compact-delta N   background-compact the delta overlay back into CSR
//	               after N accumulated update operations (0 = library
//	               default, negative disables compaction)
//
// Observability flags:
//
//	-trace-buffer N      completed-query trace ring served at /debug/queries;
//	                     0 disables (default 256)
//	-slow-query D        log queries slower than D with a per-stage breakdown;
//	                     0 disables (default 0)
//	-strict-invariants   fail queries (HTTP 500) whose inline invariant
//	                     self-verification fails, instead of only counting
//	                     the violation in /metrics
//	-pprof               expose net/http/pprof profiling under /debug/pprof/
//
// Example:
//
//	hkprserver -graph twitter.bin -addr :8080 -workers 16 -cache-mb 256 -adaptive
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hkpr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hkprserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hkprserver", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "path to the graph (edge list or .bin)")
		addr      = fs.String("addr", ":8080", "listen address")
		heat      = fs.Float64("t", 5, "heat constant t")
		epsRel    = fs.Float64("eps", 0.5, "relative error threshold εr")
		pf        = fs.Float64("pf", 1e-6, "failure probability")
		workers   = fs.Int("workers", 0, "concurrent query executions (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 0, "admission queue depth (0 = 4×workers)")
		cacheMB   = fs.Int("cache-mb", 64, "result cache budget in MiB (0 disables)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-query execution deadline (0 disables)")
		parallel  = fs.Int("parallel", 0, "per-query walk-shard parallelism; the push is serial (0 = serial unless -adaptive; subject to free CPU tokens)")
		adaptive  = fs.Bool("adaptive", false, "choose per-query parallelism adaptively from queue depth and free CPU tokens (an explicit -parallel caps it)")
		adaptEWMA = fs.Float64("adaptive-ewma", 1, "EWMA smoothing factor α in (0,1] for the queue depth the adaptive choice sees; 1 = instantaneous, smaller = smoother under bursty load")
		cpuTokens = fs.Int("cpu-tokens", 0, "shared CPU token budget for workers and walk shards (0 = max(workers, GOMAXPROCS))")
		batchWin  = fs.Duration("batch-window", 0, "hold admitted queries up to this long so same-options queries share one batched multi-source execution (0 disables)")
		batchMaxK = fs.Int("batch-max-k", 0, "flush a batching-window group early at this many queries (0 = 8)")
		traceBuf  = fs.Int("trace-buffer", 256, "completed-query trace ring capacity served at /debug/queries (0 disables)")
		slowQuery = fs.Duration("slow-query", 0, "log queries slower than this with a per-stage breakdown (0 disables)")
		strictInv = fs.Bool("strict-invariants", false, "fail queries whose inline invariant self-verification fails (HTTP 500) instead of only counting the violation")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		compactTh = fs.Int("compact-delta", 0, "compact the update delta overlay back into CSR after this many accumulated operations (0 = library default, negative disables)")

		pressureOff = fs.Bool("pressure-off", false, "disable the overload pressure controller (no degraded modes, no Retry-After hints)")
		staleFrac   = fs.Float64("stale-fraction", 0, "fraction of the cache budget reserved for serving invalidated results stale under pressure (0 = default 1/8)")
		drainTO     = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain: how long to let admitted queries finish before forcing close")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("missing -graph path")
	}
	var (
		g   *hkpr.Graph
		err error
	)
	if strings.HasSuffix(*graphPath, ".bin") {
		g, err = hkpr.LoadBinaryFile(*graphPath)
	} else {
		g, err = hkpr.LoadEdgeListFile(*graphPath)
	}
	if err != nil {
		return err
	}
	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	// The graph is always served through a Dynamic wrapper so POST /update
	// works out of the box; an untouched Dynamic reads exactly like the
	// static graph it wraps.
	dyn := hkpr.NewDynamic(g, hkpr.DynamicOptions{CompactThreshold: *compactTh})
	srv, err := newServer(dyn, hkpr.Options{T: *heat, EpsRel: *epsRel, FailureProb: *pf}, hkpr.EngineConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     cacheBytes,
		DefaultTimeout: *timeout,
		Parallelism:    *parallel,
		Adaptive:       *adaptive,
		AdaptiveEWMA:   *adaptEWMA,
		CPUTokens:      *cpuTokens,
		BatchWindow:    *batchWin,
		BatchMaxK:      *batchMaxK,

		TraceBuffer:        *traceBuf,
		SlowQueryThreshold: *slowQuery,
		StrictInvariants:   *strictInv,

		Pressure: hkpr.PressureConfig{
			Disabled:      *pressureOff,
			StaleFraction: *staleFrac,
		},
	})
	if err != nil {
		return err
	}
	defer srv.engine.Close()
	srv.pprof = *pprofOn

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	st := srv.engine.Stats()
	log.Printf("serving local clustering on %s (graph: n=%d m=%d, workers=%d queue=%d cache=%dMiB parallel=%d adaptive=%v cpu-tokens=%d)",
		*addr, g.N(), g.M(), st.Workers, st.QueueCapacity, st.CacheCapacity>>20, st.Parallelism, st.Adaptive, st.CPUTokens)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Printf("shutting down: draining admitted queries (timeout %s)", *drainTO)
		// Drain first: admission stops immediately (new queries get 503) while
		// every already-admitted query runs to completion, then stop the HTTP
		// listener.  Within -drain-timeout no admitted query is abandoned.
		drainErr := srv.engine.Drain(*drainTO)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		return drainErr
	}
}

// server holds the long-lived serving engine shared by all requests.
type server struct {
	engine *hkpr.Engine
	pprof  bool
}

func newServer(src hkpr.GraphSource, opts hkpr.Options, cfg hkpr.EngineConfig) (*server, error) {
	eng, err := hkpr.NewEngine(src, opts, cfg)
	if err != nil {
		return nil, err
	}
	return &server{engine: eng}, nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	if s.pprof {
		// Registered explicitly instead of importing the package for its
		// DefaultServeMux side effect, so profiling stays opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

type statsResponse struct {
	Nodes         int             `json:"nodes"`
	Edges         int64           `json:"edges"`
	AverageDegree float64         `json:"average_degree"`
	MaxDegree     int32           `json:"max_degree"`
	Epoch         uint64          `json:"epoch"`
	Serving       hkpr.ServeStats `json:"serving"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.engine.Graph()
	writeJSON(w, http.StatusOK, statsResponse{
		Nodes:         snap.N(),
		Edges:         snap.M(),
		AverageDegree: snap.AverageDegree(),
		MaxDegree:     snap.MaxDegree(),
		Epoch:         snap.Epoch(),
		Serving:       s.engine.Stats(),
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.engine.WriteMetrics(w)
}

type clusterResponse struct {
	Seed        int64                  `json:"seed"`
	Method      string                 `json:"method"`
	Cluster     []int64                `json:"cluster"`
	Size        int                    `json:"size"`
	Conductance float64                `json:"conductance"`
	Scores      hkpr.ScoreVector       `json:"scores,omitempty"`
	ElapsedMS   float64                `json:"elapsed_ms"`
	QueueWaitMS float64                `json:"queue_wait_ms"`
	Cached      bool                   `json:"cached"`
	Coalesced   bool                   `json:"coalesced"`
	Epoch       uint64                 `json:"epoch"`
	Parallelism int                    `json:"parallelism"`
	Pushes      int64                  `json:"push_operations"`
	Walks       int64                  `json:"random_walks"`
	Degraded    string                 `json:"degraded,omitempty"`
	Effective   *hkpr.EffectiveOptions `json:"effective,omitempty"`
	Trace       *hkpr.TraceRecord      `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seedStr := q.Get("seed")
	if seedStr == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing seed parameter"})
		return
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil || seed < 0 || seed >= int64(s.engine.Graph().N()) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "seed must be a node id in range"})
		return
	}
	method := q.Get("method")
	topK := 0
	if tkStr := q.Get("topk"); tkStr != "" {
		tk, err := strconv.Atoi(tkStr)
		if err != nil || tk < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "topk must be a positive integer"})
			return
		}
		topK = tk
	}
	sweepK := 0
	if skStr := q.Get("sweepk"); skStr != "" {
		sk, err := strconv.Atoi(skStr)
		if err != nil || sk < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "sweepk must be a positive integer"})
			return
		}
		sweepK = sk
	}
	var query hkpr.Options
	if epsStr := q.Get("eps"); epsStr != "" {
		eps, err := strconv.ParseFloat(epsStr, 64)
		if err != nil || eps <= 0 || eps > 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "eps must be in (0,1]"})
			return
		}
		query.EpsRel = eps
	}

	resp, err := s.engine.Do(r.Context(), hkpr.ServeRequest{
		Seed:   hkpr.NodeID(seed),
		Method: method,
		Opts:   query,
		// A bounded sweepk replaces the full sweep; both produce a cluster.
		Sweep:   sweepK == 0,
		SweepK:  sweepK,
		TopK:    topK,
		Trace:   q.Get("trace") != "",
		NoCache: q.Get("nocache") != "",
	})
	if err != nil {
		status, msg := statusForError(err)
		if status == 0 {
			if r.Context().Err() != nil {
				// Client went away; nothing useful to write.
				return
			}
			// Canceled for some other reason: surface it.
			status, msg = http.StatusInternalServerError, err.Error()
		}
		var oe *hkpr.OverloadedError
		if errors.As(err, &oe) && oe.RetryAfter > 0 {
			// Shed under pressure: tell the client when the queue is expected
			// to have drained (whole seconds, rounded up, floored at 1s so a
			// light-load estimate never renders as "retry now", per RFC 9110).
			w.Header().Set("Retry-After", strconv.FormatInt(hkpr.RetryAfterSeconds(oe.RetryAfter), 10))
		}
		writeJSON(w, status, errorResponse{Error: msg})
		return
	}

	members := make([]int64, len(resp.Sweep.Cluster))
	for i, v := range resp.Sweep.Cluster {
		members[i] = int64(v)
	}
	var effective *hkpr.EffectiveOptions
	if resp.Degraded == hkpr.DegradedClamped {
		eff := resp.Effective
		effective = &eff
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Seed:        seed,
		Method:      resp.Method,
		Cluster:     members,
		Size:        len(members),
		Conductance: resp.Sweep.Conductance,
		Scores:      hkpr.ScoreVector(resp.Top),
		ElapsedMS:   float64(resp.Elapsed.Microseconds()) / 1000,
		QueueWaitMS: float64(resp.QueueWait.Microseconds()) / 1000,
		Cached:      resp.Cached,
		Coalesced:   resp.Coalesced,
		Epoch:       resp.Epoch,
		Parallelism: resp.Parallelism,
		Pushes:      resp.Result.Stats.PushOperations,
		Walks:       resp.Result.Stats.RandomWalks,
		Degraded:    resp.Degraded,
		Effective:   effective,
		Trace:       resp.Trace,
	})
}

// updateRequest is the POST /update JSON body: one atomic graph update batch.
type updateRequest struct {
	AddNodes    int              `json:"add_nodes"`
	AddEdges    [][2]hkpr.NodeID `json:"add_edges"`
	RemoveEdges [][2]hkpr.NodeID `json:"remove_edges"`
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad update body: " + err.Error()})
		return
	}
	res, err := s.engine.ApplyUpdates(hkpr.UpdateBatch{
		AddNodes:    req.AddNodes,
		AddEdges:    req.AddEdges,
		RemoveEdges: req.RemoveEdges,
	})
	if err != nil {
		writeJSON(w, updateStatusForError(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// updateStatusForError maps ApplyUpdates failures to HTTP statuses: batch
// validation errors are the client's fault (400), a static engine cannot
// accept updates at all (409), a closing engine mirrors query shedding (503).
func updateStatusForError(err error) int {
	switch {
	case errors.Is(err, hkpr.ErrSelfLoop),
		errors.Is(err, hkpr.ErrDuplicateEdge),
		errors.Is(err, hkpr.ErrEdgeNotFound),
		errors.Is(err, hkpr.ErrInvalidNode):
		return http.StatusBadRequest
	case errors.Is(err, hkpr.ErrStaticGraph):
		return http.StatusConflict
	case errors.Is(err, hkpr.ErrEngineClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// statusForError maps a serving-layer error to its HTTP status and client
// message.  Status 0 means the query was canceled — the caller decides
// whether the client is gone (write nothing) or the cancellation deserves a
// 500.
func statusForError(err error) (int, string) {
	switch {
	case errors.Is(err, hkpr.ErrUnknownMethod):
		return http.StatusBadRequest, "method must be tea+, tea or monte-carlo"
	case errors.Is(err, hkpr.ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded, retry later"
	case errors.Is(err, hkpr.ErrEngineClosed):
		// The engine drains during graceful shutdown; tell clients to retry
		// elsewhere rather than reporting an internal error.
		return http.StatusServiceUnavailable, "server shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query deadline exceeded"
	case errors.Is(err, context.Canceled):
		return 0, ""
	case errors.Is(err, hkpr.ErrInvariantViolation):
		// Strict self-verification failed: the computed result violated a
		// conservation or bound invariant and was withheld.
		return http.StatusInternalServerError, err.Error()
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// debugQueriesResponse wraps /debug/queries so the payload stays extensible.
type debugQueriesResponse struct {
	Queries []*hkpr.TraceRecord `json:"queries"`
}

func (s *server) handleDebugQueries(w http.ResponseWriter, _ *http.Request) {
	recs := s.engine.Traces()
	if recs == nil {
		recs = []*hkpr.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, debugQueriesResponse{Queries: recs})
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(payload)
}
