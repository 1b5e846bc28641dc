package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
)

// host is the part of a monitor every mechanism shares: the lock, the
// counters, the deadline wheel, the flight-recorder ring, and the
// wait-time accounting. Monitor, Baseline, and Explicit embed it, so
// Enter, Stats, WaitLatency, ResetStats, Waiting, and the handle-host
// plumbing (lockWait, timers, statExpired) have one definition each.
type host struct {
	mu      sync.Mutex
	in      bool // a thread is inside the monitor (diagnostics only)
	waiting int  // registered waiters: parked waits plus armed handles

	seq   uint64      // arrival counter stamped on waiters; policy sort key
	wheel *timerWheel // deadline wheel, created on first deadline-aware wait

	// Flight recorder ring, bound once at construction when an obs
	// recorder is active process-wide, nil otherwise. Every event site is
	// gated by a plain nil check of this field — the field is set before
	// the monitor is shared, so no atomics are needed and the disabled
	// path costs one predictable branch.
	rec *obs.Ring

	// Wake-to-claim latency, allocated lazily on the first completed
	// (non-fast-path) wait so monitors that never park stay alloc-free.
	lat *stats.Histogram

	starveNs int64 // starvation threshold; 0 disables Starved
	profile  bool  // WithProfiling: time the lock and park phases

	stats Stats
}

// init applies the shared options and binds the flight-recorder ring
// under the mechanism's name.
func (h *host) init(cfg config, ring string) {
	h.profile = cfg.profile
	h.starveNs = cfg.starveNs
	if rec := obs.Active(); rec != nil {
		h.rec = rec.NewRing(ring)
	}
}

// Enter acquires the monitor, like calling a member function of a
// monitor class. Monitors are not reentrant.
func (h *host) Enter() {
	if h.profile {
		t0 := time.Now()
		h.mu.Lock()
		h.stats.LockNs += time.Since(t0).Nanoseconds()
	} else {
		h.mu.Lock()
	}
	if h.rec != nil {
		h.rec.Record(obs.KEnter, 0, 0)
	}
	h.in = true
}

// observeWait folds a completed wait's duration into the fairness
// counters: MaxWaitNs keeps the longest registration-to-completion wait,
// and Starved counts completions past the configured threshold. Runs
// under the monitor lock; seq identifies the waiter in recorded events
// (0 for cond-parked waiters, which carry no seq). Waiters that never
// registered (fast paths, folded-true arms) have since == 0 and are
// skipped.
func (h *host) observeWait(since int64, seq uint64) {
	if since == 0 {
		return
	}
	ns := time.Now().UnixNano() - since
	if ns > h.stats.MaxWaitNs {
		h.stats.MaxWaitNs = ns
	}
	if h.starveNs > 0 && ns > h.starveNs {
		h.stats.Starved++
		if h.rec != nil {
			h.rec.Record(obs.KStarved, seq, ns)
		}
	}
	if h.lat == nil {
		h.lat = new(stats.Histogram)
	}
	h.lat.Observe(time.Duration(ns))
}

// timers lazily creates the monitor's deadline wheel. Runs under the
// monitor lock.
func (h *host) timers() *timerWheel {
	if h.wheel == nil {
		h.wheel = newTimerWheel()
	}
	return h.wheel
}

// statExpired counts a handle that ended at its deadline. Runs under the
// monitor lock.
func (h *host) statExpired(w *Wait) {
	h.stats.Expired++
	if h.rec != nil {
		h.rec.Record(obs.KExpire, w.seq, 0)
	}
}

// lockWait and unlockWait expose the monitor lock to the handle methods.
func (h *host) lockWait()   { h.mu.Lock() }
func (h *host) unlockWait() { h.mu.Unlock() }

// Stats returns a snapshot of the counters. The flight-recorder fields
// (ObsEvents/ObsDrops) are folded in from the ring here rather than
// maintained per event, so they survive ResetStats as long as the ring
// does.
func (h *host) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	if h.rec != nil {
		s.ObsEvents = h.rec.Writes()
		s.ObsDrops = h.rec.Drops()
	}
	return s
}

// WaitLatency returns a copy of the wake-to-claim latency histogram —
// registration to completion of every non-fast-path wait — or nil if no
// wait has completed.
func (h *host) WaitLatency() *stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lat == nil {
		return nil
	}
	c := *h.lat
	return &c
}

// ResetStats zeroes the counters (between benchmark warm-up and the
// measured phase).
func (h *host) ResetStats() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stats = Stats{}
}

// Waiting returns the number of registered waiters: goroutines parked in
// a blocking wait plus armed, unclaimed handles. The count becomes
// visible only once the waiter is fully registered (it is updated under
// the monitor lock), so tests can poll it to know a waiter has parked —
// and assert it returns to zero to prove no handle leaked.
func (h *host) Waiting() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waiting
}

// condMonitor is the condition-variable monitor behind both comparison
// mechanisms: blocking waits park on a sync.Cond and re-check their
// closure on every wake-up, and armed handles ride alongside on waiter
// lists. Baseline and Explicit embed it and differ only in what
// releasing the lock does — Baseline broadcasts on every Exit and before
// every park, Explicit does nothing and leaves signaling to the program.
//
// The any condition serves the Mechanism-interface closure waits
// (AwaitFunc*, ArmFunc): for Baseline it is the monitor's single
// condition variable; for Explicit it is the generic waiter with no
// condition of its own, woken whenever the program signals or
// broadcasts any of the monitor's conditions. anyWaiters and the armed
// list's emptiness gate that extra wake-up, so signal-heavy workloads
// that never use the generic forms pay nothing.
type condMonitor struct {
	any        *sync.Cond
	anyWaiters int
	anyArmed   waitList

	pol        policy.Policy // wake policy: ranks armed handles for Explicit's Signal picks
	broadcasts bool          // Baseline: signalAll before every park

	host
}

func (c *condMonitor) init(cfg config, ring string, broadcasts bool) {
	c.host.init(cfg, ring)
	c.any = sync.NewCond(&c.mu)
	c.pol = cfg.policy
	c.broadcasts = broadcasts
}

// notifyAny wakes every waiter of the any condition: parked closure
// waits and armed ArmFunc handles.
func (c *condMonitor) notifyAny() {
	if c.anyWaiters > 0 {
		c.any.Broadcast()
	}
	if len(c.anyArmed.ws) > 0 {
		c.anyArmed.broadcast(nil)
	}
}

// signalAll is the baseline's broadcast: counted, recorded, and
// delivered to every parked wait and armed handle.
func (c *condMonitor) signalAll() {
	c.stats.Broadcasts++
	if c.rec != nil {
		c.rec.Record(obs.KBroadcast, 0, 0)
	}
	c.notifyAny()
}

// AwaitFunc blocks until pred() holds, re-checking after every wake-up
// on the any condition. pred must read only monitor-guarded state and
// the caller's locals. For Explicit a waiter starves if nothing is ever
// signaled — use NewCond and precise signals in real explicit-monitor
// code.
func (c *condMonitor) AwaitFunc(pred func() bool) {
	_ = c.await(nil, time.Time{}, c.any, pred)
}

// AwaitFuncCtx is AwaitFunc with cancellation: if ctx is done before the
// predicate becomes true the waiter gives up and returns ctx.Err(), still
// holding the monitor.
func (c *condMonitor) AwaitFuncCtx(ctx context.Context, pred func() bool) error {
	return c.await(ctx, time.Time{}, c.any, pred)
}

// AwaitFuncDeadline is AwaitFunc with an absolute deadline: if the
// predicate has not become true by then the waiter gives up and returns
// ErrDeadline, still holding the monitor. The expiry rides the monitor's
// timer wheel — one goroutine for every pending deadline, started on
// demand — and, like cancellation, wins a race against the predicate
// once observed.
func (c *condMonitor) AwaitFuncDeadline(deadline time.Time, pred func() bool) error {
	return c.await(nil, deadline, c.any, pred)
}

// AwaitFuncTimeout is AwaitFuncDeadline with a relative duration.
func (c *condMonitor) AwaitFuncTimeout(d time.Duration, pred func() bool) error {
	return c.await(nil, time.Now().Add(d), c.any, pred)
}

// giveUp is the give-up record of one cond-parked wait with a context
// or a deadline, allocated only for such waits. Its fields are guarded by
// the monitor lock, which is cond.L.
type giveUp struct {
	cond    *sync.Cond
	done    bool        // the wait settled: given up, or completed normally
	err     error       // why it gave up: ctx.Err() or ErrDeadline
	ctxStop func() bool // context.AfterFunc registration, if any
	timer   *timerItem  // deadline wheel registration, if any
}

// watch allocates the give-up record of a wait on cond and registers its
// fire: through context.AfterFunc for a cancellable ctx (no goroutine
// unless ctx is actually done) and on the timer wheel for a deadline.
// Runs under the monitor lock.
func (c *condMonitor) watch(ctx context.Context, deadline time.Time, cond *sync.Cond) *giveUp {
	g := &giveUp{cond: cond}
	if ctx != nil && ctx.Done() != nil {
		g.ctxStop = context.AfterFunc(ctx, func() { g.fire(ctx.Err()) })
	}
	if !deadline.IsZero() {
		g.timer = c.timers().add(deadline, func() { g.fire(ErrDeadline) })
	}
	return g
}

// fire gives the wait up with err unless it has already settled, and
// broadcasts its condition: the waiter wakes and abandons, the others
// re-check and park again — so a signal the abandoning waiter consumed
// is not lost. It runs without the monitor lock and takes it.
func (g *giveUp) fire(err error) {
	g.cond.L.Lock()
	defer g.cond.L.Unlock()
	if g.done {
		return
	}
	g.done = true
	g.err = err
	g.cond.Broadcast()
}

// stop settles the wait and retires both registrations; a fire already
// under way then finds the wait settled and does nothing. Runs under the
// monitor lock.
func (g *giveUp) stop() {
	g.done = true
	if g.ctxStop != nil {
		g.ctxStop()
	}
	g.timer.stop()
}

// await is the one cond wait: the fast path, then the wake/re-check loop
// on cond, with optional context cancellation and deadline expiry. An
// observed give-up wins a race against the predicate becoming true.
// Runs (and returns) with the monitor lock held.
func (c *condMonitor) await(ctx context.Context, deadline time.Time, cond *sync.Cond, pred func() bool) error {
	if !c.in {
		panic("autosynch: Await outside the monitor; call Enter first")
	}
	c.stats.Awaits++
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		c.stats.Expired++
		return ErrDeadline
	}
	if pred() {
		c.stats.FastPath++
		return nil
	}
	var g *giveUp
	if (ctx != nil && ctx.Done() != nil) || !deadline.IsZero() {
		g = c.watch(ctx, deadline, cond)
		defer g.stop()
	}
	if cond == c.any {
		c.anyWaiters++
	}
	since := time.Now().UnixNano()
	c.waiting++
	var err error
	for {
		if c.broadcasts {
			c.signalAll()
		}
		if c.profile {
			t0 := time.Now()
			cond.Wait()
			c.stats.AwaitNs += time.Since(t0).Nanoseconds()
		} else {
			cond.Wait()
		}
		if g != nil && g.done {
			err = g.err
			if err == ErrDeadline {
				c.stats.Expired++
				if c.rec != nil {
					c.rec.Record(obs.KExpire, 0, 0)
				}
			}
			c.stats.Abandons++
			if c.rec != nil {
				c.rec.Record(obs.KCancel, 0, 0)
			}
			break
		}
		c.stats.Wakeups++
		if pred() {
			break
		}
		c.stats.FutileWakeups++
		if c.rec != nil {
			c.rec.Record(obs.KFutileWake, 0, 0)
		}
	}
	if cond == c.any {
		c.anyWaiters--
	}
	c.waiting--
	c.in = true
	if err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.Record(obs.KClaim, 0, 0)
	}
	c.observeWait(since, 0)
	return nil
}

// ArmFunc registers a closure-predicate waiter on the any condition
// without blocking and returns its handle: every wake-up of the any
// condition notifies it, and Claim re-validates the closure under the
// lock. See Wait for the select-composition contract. ArmFunc acquires
// the monitor internally: call it outside Enter/Exit.
func (c *condMonitor) ArmFunc(pred func() bool) *Wait {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armOn(&c.anyArmed, pred)
}

// armOn registers a handle on a waiter list, with the immediate
// notification when the predicate already holds. Runs under the lock.
func (c *condMonitor) armOn(l *waitList, pred func() bool) *Wait {
	c.stats.Arms++
	w := newWait(c)
	w.pred = pred
	c.seq++
	w.seq = c.seq
	w.since = time.Now().UnixNano()
	if c.pol != nil {
		w.rank = c.pol.Rank(nil)
	}
	if c.rec != nil {
		c.rec.Record(obs.KArm, w.seq, w.rank)
	}
	l.add(w)
	c.waiting++
	if pred() {
		w.notify()
	}
	return w
}

// TryFunc is the non-blocking degenerate case of AwaitFunc: one
// evaluation inside the monitor, no parking, no arming.
func (c *condMonitor) TryFunc(pred func() bool) bool {
	if !c.in {
		panic("autosynch: TryFunc outside the monitor; call Enter first")
	}
	return pred()
}

// claimLocked re-validates a handle's closure; on success the claimer
// holds the monitor, on failure the handle is re-armed for the next
// wake-up of its list. The re-armed handle rotates behind its list's
// later registrants, matching a condition queue's FIFO fairness.
func (c *condMonitor) claimLocked(w *Wait) error {
	if w.pred() {
		c.stats.Claims++
		w.state = waitClaimed
		if c.rec != nil {
			c.rec.Record(obs.KClaim, w.seq, 0)
		}
		c.observeWait(w.since, w.seq)
		w.list.remove(w)
		c.waiting--
		c.in = true
		return nil
	}
	c.stats.FutileClaims++
	if c.rec != nil {
		c.rec.Record(obs.KFutileClaim, w.seq, 0)
	}
	w.rearm()
	w.list.requeue(w)
	return ErrNotReady
}

// cancelLocked drops a cancelled handle from its list; neither the
// broadcast nor the manual signaling discipline needs further repair.
func (c *condMonitor) cancelLocked(w *Wait) {
	c.stats.Abandons++
	if c.rec != nil {
		c.rec.Record(obs.KCancel, w.seq, 0)
	}
	w.list.remove(w)
	c.waiting--
}
