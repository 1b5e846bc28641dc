package core

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Baseline is the reference automatic-signal monitor of the paper's
// evaluation (§6.2): one condition variable for the whole monitor, a
// signalAll whenever the state may have changed, and every woken thread
// re-evaluating its own predicate after re-acquiring the lock. It is the
// design whose measured 10–50× slowdowns (Buhr et al.) created the belief
// that automatic-signal monitors are inherently expensive.
//
// Blocking waits deliberately stay on the shared condition variable — the
// broadcast storm they form under contention IS the strawman being
// measured, and it has no per-waiter addressing to reify. Armed handles
// (ArmFunc) ride alongside on a waiter list whose channels every
// broadcast also closes, so the baseline still offers the full Mechanism
// handle surface. The wake policy, if any, only ranks armed handles for
// the wait-time accounting: a broadcast wakes everyone.
type Baseline struct {
	condMonitor
}

// NewBaseline constructs a baseline monitor. Profiling enables the lock
// and await phase timers.
func NewBaseline(opts ...Option) *Baseline {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	b := &Baseline{}
	b.init(cfg, "baseline", true)
	return b
}

// Exit broadcasts (the state may have changed) and releases the monitor.
func (b *Baseline) Exit() {
	if !b.in {
		panic("autosynch: Exit without Enter")
	}
	if b.rec != nil {
		b.rec.Record(obs.KExit, 0, 0)
	}
	b.signalAll()
	b.in = false
	b.mu.Unlock()
}

// Do runs f inside the monitor.
func (b *Baseline) Do(f func()) {
	b.Enter()
	defer b.Exit()
	f()
}

// Await blocks until pred() is true. pred must read only monitor-guarded
// state and the caller's locals. Before each wait the monitor broadcasts,
// because the caller may have changed the state since entering.
func (b *Baseline) Await(pred func() bool) {
	_ = b.await(nil, time.Time{}, b.any, pred)
}

// AwaitCtx is Await with cancellation: if ctx is done before the
// predicate becomes true the waiter gives up and returns ctx.Err(), still
// holding the monitor (the baseline's broadcast discipline needs no
// further repair — every state change wakes every waiter anyway).
func (b *Baseline) AwaitCtx(ctx context.Context, pred func() bool) error {
	return b.await(ctx, time.Time{}, b.any, pred)
}
