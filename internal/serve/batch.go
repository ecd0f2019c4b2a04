package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hkpr/internal/cluster"
	"hkpr/internal/core"
	"hkpr/internal/graph"
	"hkpr/internal/trace"
)

// This file implements the serving layer's batching window: with
// Config.BatchWindow > 0, admitted executable queries are held for up to the
// window so queries with identical resolved options (any seed node) can share
// one batched core execution — core.EstimateMany's shared frontier scan — and
// demultiplex back through the existing cache, coalescing, deadline and trace
// machinery.  A group flushes early when it reaches Config.BatchMaxK sources.
//
// Members keep their full per-query identity: each admitted query still owns
// its task (context, audit, trace, waiters, flight-table entry), so a caller
// that abandons or times out mid-window or mid-execution drops its source
// from the batch (core.BatchContext.SourceCtx) without aborting the others,
// and coalescing still dedups identical concurrent queries before they ever
// reach the window.
//
// Lock order: the engine may call batcher.add while holding Engine.mu, so
// the batcher never acquires Engine.mu (directly or via Engine.finish) while
// holding its own mutex — flushes collect work under batcher.mu and perform
// channel sends and task completion outside it.

// defaultBatchMaxK caps one batched execution's sources when Config.BatchMaxK
// is unset.  It matches the core's lane-group width, so a full window flushes
// as exactly one shared frontier scan.
const defaultBatchMaxK = 8

// batchGroup accumulates the window's members for one options signature.
type batchGroup struct {
	key      string
	members  []*task
	deadline time.Time
	// active is true while the group sits in batcher.groups; it goes false at
	// flush so the expiry queue can skip groups flushed early by the size cap.
	active bool
	next   *batchGroup // free list
}

// batcher groups admitted tasks by their options signature and flushes each
// group to the admission queue when its window expires or it reaches maxK.
type batcher struct {
	e      *Engine
	window time.Duration
	maxK   int

	// pending counts queries admitted into the window but not yet handed to
	// the admission queue; it is the batching era's admission-control bound
	// (the queue channel's capacity still bounds flushed work).
	pending atomic.Int64

	mu     sync.Mutex
	closed bool
	groups map[string]*batchGroup
	// expiry holds active groups in arming order; windows are equal, so the
	// head always expires first.  head indexes the logical front.
	expiry []*batchGroup
	head   int
	free   *batchGroup

	wake chan struct{} // signals the flusher that a new head exists
	done chan struct{} // closed at shutdown
}

func newBatcher(e *Engine, window time.Duration, maxK int) *batcher {
	if maxK <= 0 {
		maxK = defaultBatchMaxK
	}
	return &batcher{
		e:      e,
		window: window,
		maxK:   maxK,
		groups: make(map[string]*batchGroup),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// add admits t into the window under the group identified by key.  It returns
// admitted=false when the window is at the engine's admission bound (the
// caller sheds the query), and a non-nil ready task when this admission
// filled a group to maxK — the caller must pass it to enqueueFlush after
// releasing any engine locks.
func (b *batcher) add(key string, t *task) (ready *task, admitted bool) {
	if b.pending.Load() >= int64(b.e.cfg.QueueDepth) {
		return nil, false
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false
	}
	g := b.groups[key]
	if g == nil {
		g = b.getGroupLocked(key)
		b.groups[key] = g
		b.expiry = append(b.expiry, g)
		// Nudge the flusher: a new group may now be the earliest deadline.
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
	b.pending.Add(1)
	g.members = append(g.members, t)
	if len(g.members) >= b.maxK {
		ready = b.flushLocked(g)
	}
	b.mu.Unlock()
	return ready, true
}

// getGroupLocked pops a recycled group (or allocates one) and arms it.
func (b *batcher) getGroupLocked(key string) *batchGroup {
	g := b.free
	if g != nil {
		b.free = g.next
		g.next = nil
	} else {
		g = &batchGroup{}
	}
	g.key = key
	g.active = true
	g.deadline = time.Now().Add(b.window)
	return g
}

// flushLocked retires g from the live set and converts its members into the
// task to enqueue: the member itself for a singleton, a container task (whose
// batch field carries the members) otherwise.  Called with b.mu held; the
// caller enqueues outside the lock.
func (b *batcher) flushLocked(g *batchGroup) *task {
	delete(b.groups, g.key)
	g.active = false
	var ready *task
	if len(g.members) == 1 {
		ready = g.members[0]
	} else {
		ready = &task{batch: append([]*task(nil), g.members...)}
		ready.ctx, ready.cancel = context.WithCancel(b.e.baseCtx)
	}
	g.members = g.members[:0]
	g.key = ""
	g.next = b.free
	b.free = g
	return ready
}

// flusher is the single background goroutine that expires windows: it sleeps
// until the head group's deadline, flushes it, and hands the result to the
// admission queue.  One goroutine (instead of a timer per group) keeps the
// steady-state cost of an enabled-but-idle batching window at zero
// allocations per query.
func (b *batcher) flusher() {
	defer b.e.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		b.mu.Lock()
		var ready *task
		wait := time.Duration(-1)
		for b.head < len(b.expiry) {
			g := b.expiry[b.head]
			if !g.active {
				// Flushed early by the size cap (or shutdown); skip.
				b.expiry[b.head] = nil
				b.head++
				continue
			}
			if d := time.Until(g.deadline); d > 0 {
				wait = d
				break
			}
			b.expiry[b.head] = nil
			b.head++
			ready = b.flushLocked(g)
			break
		}
		if b.head == len(b.expiry) {
			b.expiry = b.expiry[:0]
			b.head = 0
		}
		closed := b.closed
		b.mu.Unlock()
		if ready != nil {
			// The send can block on a full queue; expiring groups wait behind
			// it (backpressure), and engine shutdown unblocks it.
			b.e.enqueueFlush(ready)
			continue
		}
		if closed {
			return
		}
		if wait < 0 {
			select {
			case <-b.wake:
			case <-b.done:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-b.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-b.done:
			return
		}
	}
}

// shutdown fails every windowed query with ErrClosed and stops the flusher.
// Called from Engine.Close after the base context is canceled.
func (b *batcher) shutdown() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var victims []*task
	for _, g := range b.groups {
		victims = append(victims, g.members...)
		g.active = false
		g.members = g.members[:0]
	}
	clear(b.groups)
	b.mu.Unlock()
	close(b.done)
	for _, t := range victims {
		b.pending.Add(-1)
		t.cancel()
		trace.Put(t.qt)
		t.qt = nil
		b.e.finish(t, nil, ErrClosed)
	}
}

// members returns the queries t stands for on the admission queue.
func taskMembers(t *task) int64 {
	if t.batch != nil {
		return int64(len(t.batch))
	}
	return 1
}

// enqueueFlush hands a flushed window (a member task or a batch container) to
// the admission queue, blocking until a slot frees or the engine shuts down.
func (e *Engine) enqueueFlush(t *task) {
	select {
	case e.queue <- t:
		e.batch.pending.Add(-taskMembers(t))
	case <-e.baseCtx.Done():
		e.batch.pending.Add(-taskMembers(t))
		members := t.batch
		if members == nil {
			members = []*task{t}
		} else {
			t.cancel()
		}
		for _, m := range members {
			m.cancel()
			trace.Put(m.qt)
			m.qt = nil
			e.finish(m, nil, ErrClosed)
		}
	}
}

// runBatch executes one batched window: a single core EstimateMany-style call
// over every live member's seed, on one CPU token and one pooled workspace,
// then per-member demultiplexing through the same sweep, invariant, trace,
// cache and completion machinery an unbatched execution uses.
func (e *Engine) runBatch(ct *task) {
	defer ct.cancel()
	members := ct.batch
	// Drop members canceled or timed out while the window was open: their
	// sources never join the batch (the batch equivalent of run's
	// canceled-while-queued fast path).
	live := make([]*task, 0, len(members))
	for _, t := range members {
		if err := t.ctx.Err(); err != nil {
			e.metrics.Canceled.Add(1)
			trace.Put(t.qt)
			t.qt = nil
			e.finish(t, nil, err)
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	// One CPU token serves the whole batch; the shared walk stages borrow
	// extras exactly like a single query's.
	if !e.cpu.acquire(ct.ctx) {
		for _, t := range live {
			e.metrics.Canceled.Add(1)
			trace.Put(t.qt)
			t.qt = nil
			e.finish(t, nil, ct.ctx.Err())
		}
		return
	}
	k := len(live)
	// One policy read covers the whole batch, so every member degrades (or
	// not) identically — mirroring run's single read per execution.
	pol := e.activePolicy()
	waits := make([]time.Duration, k)
	sweeps := make([]*cluster.SweepResult, k)
	var results []*core.Result
	var srcErrs []error
	var batchErr error
	var chosen int
	var snap *graph.Snapshot
	var elapsed time.Duration
	var execStart time.Time
	func() {
		defer e.cpu.Release(1)
		for i, t := range live {
			waits[i] = time.Since(t.enqueued)
			e.metrics.observeStage(trace.StageQueueWait, waits[i])
			t.qt.Observe(trace.StageQueueWait, t.enqueued, waits[i])
		}
		if gate := e.execGate; gate != nil {
			gate(&live[0].req)
		}
		e.metrics.Executions.Add(int64(k))
		e.metrics.BatchExecutions.Add(1)
		e.metrics.BatchedQueries.Add(int64(k))
		e.metrics.batchSize.observe(k)
		e.metrics.InFlight.Add(int64(k))
		execStart = time.Now()
		results, srcErrs, chosen, snap, batchErr = e.executeBatch(ct, live, pol)
		// Per-member sweeps run inside the timed window, like run's, on the
		// batch's pinned snapshot so the whole window sees one epoch.
		for i, t := range live {
			if batchErr != nil || srcErrs[i] != nil || !t.req.Sweep {
				continue
			}
			if cerr := t.ctx.Err(); cerr != nil {
				srcErrs[i] = cerr
				continue
			}
			sweepStart := time.Now()
			var sw cluster.SweepResult
			if maxK := pol.MaxSweepK; maxK > 0 {
				sw = cluster.SweepK(snap, results[i].Scores, maxK)
			} else {
				sw = cluster.Sweep(snap, results[i].Scores)
			}
			sweeps[i] = &sw
			sweepD := time.Since(sweepStart)
			e.metrics.observeStage(trace.StageSweep, sweepD)
			t.qt.Observe(trace.StageSweep, sweepStart, sweepD)
		}
		elapsed = time.Since(execStart)
		e.metrics.InFlight.Add(-int64(k))
		for range live {
			e.metrics.observeLatency(elapsed)
		}
	}()

	for i, t := range live {
		var res *core.Result
		err := batchErr
		if err == nil {
			res, err = results[i], srcErrs[i]
		}
		if res != nil {
			for _, sd := range estimatorStages(&res.Stats) {
				if sd.d > 0 {
					e.metrics.observeStage(sd.stage, sd.d)
					t.qt.Observe(sd.stage, execStart, sd.d)
				}
			}
		}
		if hook := e.auditHook; hook != nil {
			hook(&t.audit)
		}
		e.metrics.foldAudit(&t.audit)
		if err == nil && e.cfg.StrictInvariants && t.audit.TotalViolations() > 0 {
			err = fmt.Errorf("%w: %s", core.ErrInvariantViolation, t.audit.FirstViolation)
			res = nil
		}
		if t.qt != nil {
			qt := t.qt
			t.qt = nil
			qt.Parallelism = chosen
			qt.Batch = k
			if res != nil {
				qt.Stats = res.Stats
			}
			errMsg := ""
			if err != nil {
				errMsg = err.Error()
			}
			rec := qt.Finish(time.Now(), errMsg)
			trace.Put(qt)
			rec.InvariantChecks = t.audit.Checks
			rec.InvariantViolations = t.audit.TotalViolations()
			t.rec = rec
			if e.ring != nil {
				e.ring.add(rec)
			}
			if thr := e.cfg.SlowQueryThreshold; thr > 0 && elapsed >= thr {
				e.slowLog("hkpr: slow query seed=%d method=%s batch=%d elapsed=%s stages: %s",
					t.req.Seed, t.req.Method, k, elapsed.Round(time.Microsecond), rec.StageSummary())
			}
		}
		if err != nil {
			if t.ctx.Err() != nil {
				e.metrics.Canceled.Add(1)
			} else {
				e.metrics.Errors.Add(1)
			}
			e.finish(t, nil, err)
			continue
		}
		resp := &Response{
			Seed:        t.req.Seed,
			Method:      t.req.Method,
			Result:      res,
			Sweep:       sweeps[i],
			QueueWait:   waits[i],
			Elapsed:     elapsed,
			Parallelism: chosen,
			Epoch:       snap.Epoch(),
		}
		memberSweepK := 0
		if sweeps[i] != nil && pol.MaxSweepK > 0 {
			memberSweepK = pol.MaxSweepK
		}
		e.labelClamped(resp, res, pol, memberSweepK)
		if !t.req.NoCache && e.cache != nil {
			e.populateCache(t.key, resp)
		}
		e.finish(t, resp, nil)
	}
}

// executeBatch dispatches one batched window to the method's Many estimator:
// a single workspace, the engine's CPU gate, and per-member contexts and
// audits threaded through core.BatchContext so one member's cancellation or
// violation never aborts the rest.  The whole window executes against one
// pinned snapshot, returned so runBatch sweeps and stamps the same epoch.
func (e *Engine) executeBatch(ct *task, members []*task, pol TierPolicy) ([]*core.Result, []error, int, *graph.Snapshot, error) {
	wsStart := time.Now()
	ws := e.workspaces.Get().(*core.Workspace)
	wsD := time.Since(wsStart)
	e.metrics.observeStage(trace.StageWorkspace, wsD)
	e.wsOut.Add(1)
	defer func() {
		e.wsOut.Add(-1)
		e.workspaces.Put(ws)
	}()
	seeds := make([]graph.NodeID, len(members))
	srcCtx := make([]context.Context, len(members))
	srcAudit := make([]*core.InvariantAudit, len(members))
	pinned := 0
	for i, t := range members {
		t.qt.Observe(trace.StageWorkspace, wsStart, wsD)
		seeds[i] = t.req.Seed
		srcCtx[i] = t.ctx
		srcAudit[i] = &t.audit
		if pinned == 0 {
			pinned = t.req.Opts.Parallelism
		}
	}
	snap := e.src.Snapshot()
	bc := core.BatchContext{
		OptionsContext: core.OptionsContext{
			Ctx:        ct.ctx,
			CheckEvery: e.cfg.CancelCheckEvery,
			CPU:        e.cpu,
			Workspace:  ws,
			Snapshot:   snap,
			WalkScale:  pol.WalkScale,
		},
		SourceCtx:   srcCtx,
		SourceAudit: srcAudit,
	}
	// The group key guarantees identical resolved options across members;
	// parallelism (excluded from the key because results are bit-identical at
	// any width) resolves once for the whole batch from the first pin.
	opts := members[0].req.Opts
	opts.Parallelism = e.clampParallelism(e.chooseParallelism(pinned), pol)
	chosen := opts.Parallelism
	if chosen == 0 {
		chosen = e.est.Options().Parallelism
	}
	if chosen < 1 {
		chosen = 1
	}
	e.metrics.LastParallelism.Store(int64(chosen))
	var results []*core.Result
	var errs []error
	var err error
	switch members[0].req.Method {
	case MethodTEA:
		results, errs, err = e.est.TEAManyContext(bc, seeds, opts)
	case MethodMonteCarlo:
		results, errs, err = e.est.MonteCarloManyContext(bc, seeds, opts)
	default:
		results, errs, err = e.est.TEAPlusManyContext(bc, seeds, opts)
	}
	return results, errs, chosen, snap, err
}
