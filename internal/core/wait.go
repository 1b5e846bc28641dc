package core

import (
	"errors"
	"time"

	"repro/internal/policy"
)

// Handle lifecycle sentinels. ErrNotReady is the expected return of a
// futile Claim (the handle has been re-armed and will fire again);
// ErrClaimed and ErrCancelled report misuse of a finished handle.
var (
	// ErrNotReady is returned by Wait.Claim when a racing mutation
	// falsified the predicate between notification and the claim. The
	// handle has been transparently re-armed: Ready returns a fresh
	// channel and the claim loop simply selects again.
	ErrNotReady = errors.New("autosynch: predicate no longer holds; wait handle re-armed")

	// ErrClaimed is returned by Wait.Claim on a handle that was already
	// claimed successfully.
	ErrClaimed = errors.New("autosynch: wait handle already claimed")

	// ErrCancelled is reported by Wait.Err and Wait.Claim after Cancel.
	ErrCancelled = errors.New("autosynch: wait handle cancelled")

	// ErrDeadline is returned by the deadline-aware waits
	// (AwaitDeadline/AwaitTimeout/AwaitFuncDeadline) and reported by a
	// handle whose Wait.Deadline passed before it was claimed. Like a
	// context cancellation, expiry takes priority once observed: a waiter
	// woken by its deadline returns ErrDeadline even if its predicate has
	// just become true, and relay invariance is restored before it
	// returns (the in-flight signal, if it held one, is reconciled and
	// relayed onward).
	ErrDeadline = errors.New("autosynch: wait deadline exceeded")
)

// waitState is the lifecycle of a handle: armed (registered, waiting to
// be notified or re-validated), claimed (the wait completed; the claimer
// holds the monitor), or cancelled (unregistered without completing —
// by Cancel or because arming itself failed).
type waitState uint8

const (
	waitArmed waitState = iota
	waitClaimed
	waitCancelled
)

// waitHost is the mechanism half of a handle: the shared host supplies
// the lock, the timer wheel, and expiry accounting, and Monitor (relay)
// or condMonitor (waiter lists) the registration-aware claim and cancel
// steps, so one Wait type serves Monitor, Baseline, and Explicit
// uniformly.
type waitHost interface {
	lockWait()
	unlockWait()
	// claimLocked runs under the host lock with the handle armed. On nil
	// it has marked the handle claimed, unregistered it, and left the
	// monitor HELD for the caller; on ErrNotReady it has re-armed the
	// handle and the generic wrapper releases the lock.
	claimLocked(w *Wait) error
	// cancelLocked unregisters an armed handle and restores the host's
	// signaling invariants. The generic wrapper has already moved the
	// handle to waitCancelled and closed its channel.
	cancelLocked(w *Wait)
	// timers returns the host's deadline wheel, creating it lazily.
	// Called under the host lock.
	timers() *timerWheel
	// statExpired counts one deadline expiry (of handle w) under the
	// host lock.
	statExpired(w *Wait)
}

// Wait is a first-class armed waiter: the waituntil of the paper without
// the parked goroutine. Predicate.Arm (and the per-mechanism ArmFunc)
// registers the waiter with the condition manager exactly like a blocking
// Await, but delivers the notification by closing a channel instead of
// unparking a goroutine — so one goroutine can multiplex any number of
// armed waits with select:
//
//	w := notEmpty.Arm()
//	select {
//	case <-w.Ready():
//	    if err := w.Claim(); err == autosynch.ErrNotReady {
//	        continue // falsified by a racing mutation; handle re-armed
//	    }
//	    // predicate true, monitor held: consume, then Exit.
//	    take()
//	    m.Exit()
//	case <-other:
//	    ...
//	}
//
// Ready fires when the mechanism decides this waiter's predicate has
// become true (relay signaling for Monitor, a broadcast for Baseline, a
// manual signal for Explicit). Notification is decoupled from monitor
// handoff: the claimer re-enters the monitor and re-validates Mesa-style,
// because the state may have changed since the channel was closed.
//
// An armed handle counts toward Waiting() and, for Monitor, may hold the
// mechanism's single in-flight relay signal; a handle that fires must be
// claimed or cancelled promptly, and every armed handle must eventually
// be claimed or cancelled, or its monitor's signaling stalls (exactly as
// if a signaled thread were never scheduled again).
//
// All methods are safe for concurrent use, but Claim and Cancel acquire
// the monitor internally — do not call them while holding it.
type Wait struct {
	host waitHost

	// All remaining fields are guarded by the host's monitor lock.
	ready    chan struct{} // closed to notify; replaced on re-arm
	state    waitState
	notified bool  // ready is closed for the current arm cycle
	viaRelay bool  // the notification is an in-flight relay signal (Monitor)
	err      error // terminal error: arm failure, ErrCancelled, or ErrDeadline
	e        *entry
	pred     func() bool // Baseline/Explicit re-validation closure
	list     *waitList   // registration list for list-based hosts
	idx      int         // position in e.waiters or list.ws

	// Wake-policy and deadline state. seq is the host-global arrival
	// sequence and rank the registration-time policy rank — together the
	// policy.Candidate the wake policy compares. since is the
	// registration wall time feeding MaxWaitNs/Starved; timer the armed
	// deadline item, if any; expired flags a blocking waiter whose
	// deadline fired (checked before the predicate on wake-up).
	seq     uint64
	rank    int64
	since   int64
	timer   *timerItem
	expired bool

	// Select subscription: when set, every notification additionally
	// delivers selIdx on selCh, so one goroutine can park on a single
	// channel shared by any number of handles (across monitors and
	// mechanisms) instead of reflect.Select's O(N) case walk. The
	// subscription survives re-arming: a futile claim re-arms the handle
	// and the next notification delivers again.
	selCh  chan int
	selIdx int
}

// newWait constructs an armed handle for a host; registration is the
// host's job.
func newWait(h waitHost) *Wait {
	return &Wait{host: h, ready: make(chan struct{}), idx: -1}
}

// failedWait is a handle whose arming failed: Ready is already closed,
// Claim and Err report the error, Cancel is a no-op.
func failedWait(err error) *Wait {
	w := &Wait{state: waitCancelled, err: err, ready: make(chan struct{}), idx: -1}
	close(w.ready)
	w.notified = true
	return w
}

// notify closes the ready channel for the current arm cycle. Idempotent;
// runs under the host lock.
func (w *Wait) notify() {
	if w.notified {
		return
	}
	w.notified = true
	close(w.ready)
	if w.selCh != nil {
		// At most one delivery is outstanding per handle (notify is gated
		// by the notified flag and re-arming happens under the subscriber's
		// own claim), so a buffered channel sized to the subscription count
		// never drops; the non-blocking send only discards post-teardown
		// courtesy closes from Cancel.
		select {
		case w.selCh <- w.selIdx:
		default:
		}
	}
}

// rearm resets the handle for another notification cycle: a fresh channel
// and cleared delivery flags. Runs under the host lock; the caller settles
// any in-flight-signal accounting first.
func (w *Wait) rearm() {
	w.notified = false
	w.viaRelay = false
	w.ready = make(chan struct{})
}

// subscribe attaches a shared Select delivery channel to the handle: the
// current and every future notification (the subscription survives
// re-arming) sends idx on ch. A handle that is already notified — or
// whose arming failed, leaving it born-notified — delivers immediately,
// so a subscriber can never miss the arm-time evaluation.
func (w *Wait) subscribe(ch chan int, idx int) {
	if w.host == nil {
		select {
		case ch <- idx:
		default:
		}
		return
	}
	w.host.lockWait()
	w.selCh, w.selIdx = ch, idx
	if w.notified {
		select {
		case ch <- idx:
		default:
		}
	}
	w.host.unlockWait()
}

// Subscribe attaches a standing delivery channel to the handle: the
// current and every future notification (the subscription survives the
// transparent re-arm after a futile Claim) sends idx on ch, so one
// goroutine can multiplex any number of armed handles by receiving from
// a single channel — the mechanism behind Select, exposed for daemons
// that hold long-lived handle populations (internal/watchd).
//
// The contract that makes delivery lossless: ch must be buffered, and the
// subscriber must guarantee capacity for every notification that can be
// outstanding at once. A handle sends at most once per arm cycle (the
// notified flag gates it), and a new cycle begins only after the previous
// notification was consumed — via Claim (success starts no cycle; a
// futile claim re-arms) — so a population of N live handles needs
// capacity N, plus one slot per cancelled handle whose final notification
// (Cancel's courtesy delivery) has not yet been received. Sends never
// block: a notification that finds the channel full is dropped, which
// the sizing rule above must make impossible for live handles.
//
// A handle already notified — or born notified because arming failed —
// delivers immediately, so a subscriber cannot miss the arm-time
// evaluation. Subscribing again replaces the previous subscription.
func (w *Wait) Subscribe(ch chan int, idx int) { w.subscribe(ch, idx) }

// Ready returns the channel that is closed when the waiter is notified.
// After a futile Claim the handle is re-armed with a fresh channel, so a
// select loop must call Ready again on each iteration rather than caching
// the first channel.
func (w *Wait) Ready() <-chan struct{} {
	if w.host == nil {
		return w.ready
	}
	w.host.lockWait()
	ch := w.ready
	w.host.unlockWait()
	return ch
}

// Claim completes the wait: it re-enters the monitor and re-validates the
// predicate Mesa-style. On nil the caller HOLDS the monitor with the
// predicate true — the handle is spent, and the usual critical section
// ends with Exit. If a racing mutation falsified the predicate, Claim
// re-arms the handle transparently and returns ErrNotReady without the
// monitor; select on Ready again. A cancelled or arm-failed handle
// returns its terminal error, an already-claimed one ErrClaimed.
//
// Claim may be called before Ready fires; it then simply answers whether
// the predicate holds right now (claiming eagerly, or re-arming).
func (w *Wait) Claim() error {
	if w.host == nil {
		return w.err
	}
	w.host.lockWait()
	switch w.state {
	case waitClaimed:
		w.host.unlockWait()
		return ErrClaimed
	case waitCancelled:
		err := w.err
		w.host.unlockWait()
		return err
	}
	err := w.host.claimLocked(w)
	if err != nil {
		w.host.unlockWait()
		return err
	}
	w.stopTimer()
	return nil
}

// Deadline arms a deadline on the handle: if it is still armed when t
// passes, the handle is cancelled with ErrDeadline — Ready fires (so a
// selecting goroutine unblocks), Claim and Err report ErrDeadline, and
// the host's signaling invariants are restored exactly as by Cancel (an
// in-flight relay signal is reconciled and relayed onward). A successful
// Claim or an explicit Cancel first disarms the timer. Arming a second
// deadline replaces the first. Deadline returns its receiver so it chains
// off Arm: p.Arm(binds...).Deadline(t). The expiry machinery is the
// host's timer wheel — one goroutine per monitor, not one per handle —
// and that goroutine exits whenever no deadline is pending.
func (w *Wait) Deadline(t time.Time) *Wait {
	if w.host == nil {
		return w
	}
	w.host.lockWait()
	if w.state != waitArmed {
		w.host.unlockWait()
		return w
	}
	w.timer.stop()
	w.timer = w.host.timers().add(t, func() { w.expire() })
	w.host.unlockWait()
	return w
}

// Timeout is Deadline relative to now.
func (w *Wait) Timeout(d time.Duration) *Wait { return w.Deadline(time.Now().Add(d)) }

// expire is the timer wheel's fire path for a handle deadline: cancel
// the handle with ErrDeadline. Racing claims are settled by the host
// lock — a handle claimed or cancelled first makes this a no-op.
func (w *Wait) expire() {
	w.host.lockWait()
	defer w.host.unlockWait()
	if w.state != waitArmed {
		return
	}
	w.state = waitCancelled
	w.err = ErrDeadline
	w.host.statExpired(w)
	w.host.cancelLocked(w)
	w.notify()
}

// stopTimer disarms the handle's deadline, if any. Runs under the host
// lock.
func (w *Wait) stopTimer() {
	w.timer.stop()
	w.timer = nil
}

// cand is the waiter's identity for wake-policy comparisons.
func cand(w *Wait) policy.Candidate { return policy.Candidate{Seq: w.seq, Rank: w.rank} }

// Cancel abandons an armed handle: it is unregistered from the predicate
// table and tag structures, any in-flight signal addressed to it is
// reconciled and relayed onward (relay invariance survives, exactly as
// for a context-cancelled Await), and Ready is closed so a selecting
// goroutine unblocks. Err reports ErrCancelled afterwards. Cancelling a
// claimed, failed, or already-cancelled handle is a no-op.
func (w *Wait) Cancel() {
	if w.host == nil {
		return
	}
	w.host.lockWait()
	defer w.host.unlockWait()
	if w.state != waitArmed {
		return
	}
	w.state = waitCancelled
	w.err = ErrCancelled
	w.stopTimer()
	// Unregister before closing the channel: the host's bookkeeping (the
	// entry's unnotified count, for Monitor) distinguishes delivered
	// notifications from the cancellation's courtesy close.
	w.host.cancelLocked(w)
	w.notify()
}

// Err returns the handle's terminal error: nil while armed or after a
// successful claim, ErrCancelled after Cancel, or the arming error for a
// handle whose Arm failed (malformed bindings, ErrNeverTrue, …).
func (w *Wait) Err() error {
	if w.host == nil {
		return w.err
	}
	w.host.lockWait()
	err := w.err
	w.host.unlockWait()
	return err
}

// waitList is the waiter registry of the broadcast- and signal-based
// mechanisms (Baseline, Explicit): an order-indifferent set with O(1)
// add/remove and notification sweeps. All methods run under the owning
// monitor's lock.
type waitList struct {
	ws []*Wait
}

func (l *waitList) add(w *Wait) {
	w.list = l
	w.idx = len(l.ws)
	l.ws = append(l.ws, w)
}

func (l *waitList) remove(w *Wait) {
	last := len(l.ws) - 1
	moved := l.ws[last]
	l.ws[w.idx] = moved
	moved.idx = w.idx
	l.ws[last] = nil
	l.ws = l.ws[:last]
	w.idx = -1
	w.list = nil
}

// broadcast notifies every registered waiter except skip (a waiter about
// to park must not wake itself with its own pre-wait broadcast).
func (l *waitList) broadcast(skip *Wait) {
	for _, w := range l.ws {
		if w != skip {
			w.notify()
		}
	}
}

// signalOne notifies one not-yet-notified waiter, mirroring
// sync.Cond.Signal; returns the notified waiter, or nil when every
// waiter is already notified (or the list is empty). Without a policy
// the pick is list order; with one, the policy compares every eligible
// handle and the best wakes — the explicit-monitor half of the
// pluggable wake policies.
func (l *waitList) signalOne(pol policy.Policy) *Wait {
	var best *Wait
	for _, w := range l.ws {
		if w.notified {
			continue
		}
		if pol == nil {
			w.notify()
			return w
		}
		if best == nil || pol.Better(cand(w), cand(best)) {
			best = w
		}
	}
	if best == nil {
		return nil
	}
	best.notify()
	return best
}

// requeue moves a futile-woken waiter behind the waiters registered after
// it, mirroring a condition variable's FIFO rotation: a waiter whose
// predicate stays false cannot absorb every future signal while a
// runnable waiter starves behind it.
func (l *waitList) requeue(w *Wait) {
	l.remove(w)
	l.add(w)
}
