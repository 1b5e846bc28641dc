package core

import (
	"context"
	"time"
)

// Guard is a guarded region: the paper's waituntil-guarded critical
// section reified as a first-class value. Where the primitive API makes
// callers hand-assemble Enter / Await / mutate / Exit, a Guard packages
// the whole unit — Do (and DoCtx, Try) atomically enters the monitor,
// awaits the predicate, runs the body, and exits, with the unlock
// guaranteed even when the body panics.
//
// Guards are created by Monitor.When (compiled predicate plus bindings),
// Predicate.When, Cond.When, the WhenFunc of every Mechanism, and the
// keyed When/WhenFunc of a sharded monitor. A Guard is immutable and
// reusable: Do it any number of times, from any goroutine, and compose
// guards on different monitors — and different mechanisms — with Select.
//
// Arming errors are surfaced eagerly: a guard built from malformed
// bindings or an unsatisfiable globalization (ErrNeverTrue) reports the
// *PredicateError from Err, and Do/DoCtx return it (Try returns false)
// without ever entering the monitor or parking, matching the compiled
// predicate API's error contract.
//
// Like Arm, guard construction and use acquire the monitor internally:
// call When/WhenFunc and Do/DoCtx/Try (and Select) OUTSIDE Enter/Exit —
// monitors are not reentrant, so doing either inside a critical section
// of the same monitor deadlocks. Inside the body the monitor is held;
// mutate the cells directly rather than calling Do/Enter again.
type Guard struct {
	mech Mechanism
	err  error

	// The three faces of the wait, mechanism-bound at construction.
	// await and try run inside the monitor (between Enter and Exit);
	// arm runs outside it and returns a fresh armed handle for Select.
	await func(ctx context.Context) error
	try   func() bool
	arm   func() *Wait
}

// Err reports the guard's construction error: a *PredicateError for
// malformed bindings or a never-true globalization, nil for a usable
// guard. Do, DoCtx, and Select surface the same error without parking.
func (g *Guard) Err() error { return g.err }

// Do is the guarded region: enter the monitor, wait until the predicate
// holds, run body inside the monitor with the predicate true, and exit —
// relaying onward per the mechanism's discipline. The exit is deferred,
// so a panicking body still releases the monitor and the panic propagates
// to the caller with all signaling invariants intact. Call Do outside
// the monitor (it Enters internally; monitors are not reentrant).
func (g *Guard) Do(body func()) error {
	if g.err != nil {
		return g.err
	}
	g.mech.Enter()
	defer g.mech.Exit()
	if err := g.await(nil); err != nil {
		return err
	}
	body()
	return nil
}

// DoCtx is Do with cancellation: if ctx is done before the predicate
// becomes true the wait is abandoned (with the mechanism's usual relay
// repair) and DoCtx returns ctx.Err() without running body. The monitor
// is released on every path, panicking bodies included.
func (g *Guard) DoCtx(ctx context.Context, body func()) error {
	if g.err != nil {
		return g.err
	}
	g.mech.Enter()
	defer g.mech.Exit()
	if err := g.await(ctx); err != nil {
		return err
	}
	body()
	return nil
}

// Try is the non-blocking guarded region: enter, evaluate the predicate
// once, and — only if it holds — run body inside the monitor. It reports
// whether the body ran. A guard with a construction error never runs its
// body; check Err. The exit is deferred exactly as in Do.
func (g *Guard) Try(body func()) bool {
	if g.err != nil {
		return false
	}
	g.mech.Enter()
	defer g.mech.Exit()
	if !g.try() {
		return false
	}
	body()
	return true
}

// Then pairs the guard with the body to run if it wins a Select.
func (g *Guard) Then(body func()) Case {
	return Case{guard: g, body: body}
}

// whenFunc builds the closure-predicate guard every mechanism shares:
// the closure is evaluated under the mechanism's monitor exactly as in
// AwaitFunc/TryFunc/ArmFunc, so it must only read state guarded by that
// monitor and values that cannot change while waiting.
func whenFunc(mech Mechanism, pred func() bool) *Guard {
	return &Guard{
		mech:  mech,
		await: func(ctx context.Context) error { return mech.AwaitFuncCtx(ctx, pred) },
		try:   func() bool { return mech.TryFunc(pred) },
		arm:   func() *Wait { return mech.ArmFunc(pred) },
	}
}

// WhenFunc returns the guarded region on a closure predicate; see Guard.
// Notification follows the monitor's relay discipline: the body runs only
// when the closure is actually true.
func (m *Monitor) WhenFunc(pred func() bool) *Guard { return whenFunc(m, pred) }

// WhenFunc returns the guarded region on a closure predicate; the
// baseline's broadcast-on-exit discipline wakes it like any waiter.
func (b *Baseline) WhenFunc(pred func() bool) *Guard { return whenFunc(b, pred) }

// WhenFunc returns the guarded region on a closure predicate, woken by
// any manual signal of the monitor (the generic any-condition waiter);
// prefer Cond.When in real explicit-monitor code, where precise signals
// target the guard's own condition.
func (e *Explicit) WhenFunc(pred func() bool) *Guard { return whenFunc(e, pred) }

// When returns the guarded region on an explicit condition variable:
// Do parks on this condition (woken by its Signal/Broadcast), Select
// arms a handle on it — the guarded-region analog of the while-loop
// around Condition.await.
func (c *Cond) When(pred func() bool) *Guard {
	return &Guard{
		mech:  c.m,
		await: func(ctx context.Context) error { return c.m.await(ctx, time.Time{}, c.cond, pred) },
		try:   func() bool { return c.m.TryFunc(pred) },
		arm:   func() *Wait { return c.Arm(pred) },
	}
}

// When returns the guarded region on a compiled predicate with the given
// bindings. The bindings are validated — and the globalization checked
// for satisfiability — immediately: a malformed guard carries its
// *PredicateError in Err and never parks. The binding values are
// snapshotted into the guard, so the guard stays valid however the
// caller's locals change, and one Predicate yields independent guards
// for different bindings. When acquires the monitor internally: call it
// (like Compile and Arm) outside Enter/Exit.
func (m *Monitor) When(p *Predicate, binds ...Binding) *Guard {
	bs := append([]Binding(nil), binds...)
	g := &Guard{mech: m}
	if g.err = m.vetPred(p, bs); g.err != nil {
		return g
	}
	g.await = func(ctx context.Context) error { return m.awaitPred(ctx, time.Time{}, p, bs) }
	g.try = func() bool {
		ok, err := m.tryPred(p, bs)
		return err == nil && ok
	}
	g.arm = func() *Wait { return p.Arm(bs...) }
	return g
}

// When is Monitor.When spelled from the predicate:
// hasItems.When(Bind("num", 3)).Do(take).
func (p *Predicate) When(binds ...Binding) *Guard {
	if p == nil {
		return &Guard{err: &PredicateError{Src: "<nil>", Msg: "nil predicate"}}
	}
	return p.m.When(p, binds...)
}

// vetPred validates a guard's predicate and bindings at construction
// time: binding names, arity, and types against the compiled locals, and
// the globalized predicate against ErrNeverTrue — the same checks the
// wait path would make, pulled forward so the guard fails before parking.
// A fresh entry built only for the probe is retired immediately (parked
// on the inactive list for reuse, exactly as a completed wait leaves it).
func (m *Monitor) vetPred(p *Predicate, binds []Binding) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p == nil {
		return &PredicateError{Src: "<nil>", Msg: "nil predicate"}
	}
	if p.m != m {
		return predErrf(p.src, "predicate was compiled by a different monitor")
	}
	if err := p.setBinds(binds); err != nil {
		return err
	}
	e, err := m.entryFor(p)
	if err != nil {
		return err
	}
	if e != nil {
		m.retireIfIdle(e)
	}
	return nil
}
