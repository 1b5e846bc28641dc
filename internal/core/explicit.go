package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Explicit is the instrumented explicit-signal monitor: a mutex with
// programmer-managed condition variables, the java.util.concurrent
// Lock/Condition analog used as the principal comparison point in the
// paper's evaluation. The programmer associates predicates with conditions
// and must signal the right condition at the right time — exactly the
// burden (and bug source) AutoSynch removes.
//
// Blocking waits park on each condition's sync.Cond exactly as the
// comparison point demands; armed handles (Cond.Arm, ArmFunc) ride
// alongside on per-condition waiter lists whose channels Signal and
// Broadcast also notify, so explicit monitors offer the full Mechanism
// handle surface without perturbing the measured signaling discipline.
// The generic closure waits (AwaitFunc*, ArmFunc) wake whenever the
// program signals or broadcasts any of the monitor's conditions.
type Explicit struct {
	condMonitor
}

// NewExplicit constructs an explicit-signal monitor.
func NewExplicit(opts ...Option) *Explicit {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	e := &Explicit{}
	e.init(cfg, "explicit", false)
	return e
}

// Exit releases the monitor. No signaling happens implicitly.
func (e *Explicit) Exit() {
	if !e.in {
		panic("autosynch: Exit without Enter")
	}
	if e.rec != nil {
		e.rec.Record(obs.KExit, 0, 0)
	}
	e.in = false
	e.mu.Unlock()
}

// Do runs f inside the monitor.
func (e *Explicit) Do(f func()) {
	e.Enter()
	defer e.Exit()
	f()
}

// Cond is an explicit condition variable bound to its monitor's lock.
type Cond struct {
	m     *Explicit
	cond  *sync.Cond
	armed waitList // armed handles routed to this condition
}

// NewCond creates a condition variable on the monitor.
func (e *Explicit) NewCond() *Cond {
	return &Cond{m: e, cond: sync.NewCond(&e.mu)}
}

// Await blocks until pred() holds, re-checking after every wake-up — the
// standard while-loop idiom around Condition.await.
func (c *Cond) Await(pred func() bool) {
	_ = c.m.await(nil, time.Time{}, c.cond, pred)
}

// AwaitCtx is Await with cancellation: a waiter whose context is done
// gives up its spot on the condition and returns ctx.Err(), still holding
// the monitor. The cancellation wakes the condition's other waiters too;
// they re-check their predicates and park again, as after any broadcast.
func (c *Cond) AwaitCtx(ctx context.Context, pred func() bool) error {
	return c.m.await(ctx, time.Time{}, c.cond, pred)
}

// AwaitDeadline is Await with an absolute deadline: if the predicate has
// not become true by then the waiter gives up and returns ErrDeadline,
// still holding the monitor. The expiry broadcast wakes the condition's
// other waiters too, which re-check and re-park as after any broadcast;
// like cancellation, an observed expiry wins a race against the
// predicate becoming true.
func (c *Cond) AwaitDeadline(deadline time.Time, pred func() bool) error {
	return c.m.await(nil, deadline, c.cond, pred)
}

// AwaitTimeout is AwaitDeadline with a relative duration.
func (c *Cond) AwaitTimeout(d time.Duration, pred func() bool) error {
	return c.m.await(nil, time.Now().Add(d), c.cond, pred)
}

// Arm registers a waiter on this condition without blocking and returns
// its handle: Signal and Broadcast on this condition notify it, and Claim
// re-validates the closure under the lock — the handle analog of the
// while-loop around Condition.await. Arm acquires the monitor internally:
// call it outside Enter/Exit.
func (c *Cond) Arm(pred func() bool) *Wait {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.m.armOn(&c.armed, pred)
}

// Signal wakes one thread waiting on the condition. A signal reaches both
// waiter populations: one parked goroutine (if any) and one armed handle
// — the handle re-validates at claim time, so the at-most-one-consumer
// contract of the underlying state is preserved by the predicates
// themselves, as everywhere in an explicit monitor. With a wake policy
// the armed handle is the policy's pick; the parked goroutine is the one
// sync.Cond picks.
func (c *Cond) Signal() {
	c.m.stats.Signals++
	c.cond.Signal()
	picked := c.armed.signalOne(c.m.pol)
	if picked != nil && c.m.pol != nil {
		c.m.stats.PolicyWakes++
	}
	if r := c.m.rec; r != nil {
		// Explicit monitors have no relay: every signal roots its own
		// chain (origin 0); the seq is the picked armed handle's, or 0
		// when only a parked (seq-less) goroutine can answer.
		var seq uint64
		if picked != nil {
			seq = picked.seq
		}
		r.Record(obs.KSignal, seq, 0)
		if picked != nil && c.m.pol != nil {
			r.Record(obs.KPolicyWake, picked.seq, picked.rank)
		}
	}
	c.m.notifyAny()
}

// Broadcast wakes every thread waiting on the condition (signalAll).
func (c *Cond) Broadcast() {
	c.m.stats.Broadcasts++
	if r := c.m.rec; r != nil {
		r.Record(obs.KBroadcast, 0, 0)
	}
	c.cond.Broadcast()
	if len(c.armed.ws) > 0 {
		c.armed.broadcast(nil)
	}
	c.m.notifyAny()
}
