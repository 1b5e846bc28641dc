package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/watchd"
)

// Watch run shape: each sub-run builds its own daemon, so the
// set-up time is sampled once per sub-run.
const (
	watchWarmup = time.Second
	watchDrain  = 10 * time.Second // how long standing sessions get to catch up after the last publish
)

// watchRun is one watch sub-run. The OnEvent callback runs on the
// daemon's dispatchers; everything else runs on the generator goroutine.
type watchRun struct {
	in *watchInputs
	// pubOf[k][v-1] is the schedule index of the publish that makes key
	// k's version v; the generator is the only publisher, so versions
	// follow the schedule exactly.
	pubOf [][]int32
	// Phase boundaries in schedule time: [timedFrom, tracedFrom) is the
	// untraced measured phase and [tracedFrom, end) the traced one.
	timedFrom, tracedFrom time.Duration
	start                 atomic.Int64 // nanotime of schedule time 0
	tr                    atomic.Pointer[tracer]
	pubSpan               []int32 // span of each scheduled publish; -1 untraced

	deliver, deliverTraced hist // publish due time to OnEvent, per phase
	wake                   hist // the daemon's wake-to-claim, untraced phase
	late                   hist // generator lateness, untraced phase
	renews                 atomic.Int64
	renewErrs              atomic.Int64 // Renew errors other than the session having ended
	unknown                atomic.Int64 // deliveries of a version no publish made
}

func newWatchRun(in *watchInputs, timedFrom, tracedFrom time.Duration) *watchRun {
	w := &watchRun{in: in, timedFrom: timedFrom, tracedFrom: tracedFrom}
	w.pubOf = make([][]int32, watchKeys)
	w.pubSpan = make([]int32, len(in.events))
	for i, ev := range in.events {
		w.pubSpan[i] = -1
		if ev.victim < 0 {
			w.pubOf[ev.key] = append(w.pubOf[ev.key], int32(i))
		}
	}
	return w
}

func (w *watchRun) onEvent(ev watchd.Event) {
	tr := w.tr.Load()
	w.observe(tr, ev.Key, ev.Version, ev.Wake, nanotime())
	s := tr.begin(spanRenew, -1, 0)
	err := ev.Session.Renew()
	tr.end(s)
	w.renews.Add(1)
	if err != nil && !errors.Is(err, watchd.ErrCancelled) && !errors.Is(err, watchd.ErrClosed) {
		w.renewErrs.Add(1)
	}
}

// observe accounts a delivery of key's version at time now to the
// publish that made that version: its latency from the publish's due
// time goes to the phase the publish was due in.
func (w *watchRun) observe(tr *tracer, key uint64, version int64, wake time.Duration, now int64) {
	vs := w.pubOf[key]
	if version < 1 || version > int64(len(vs)) {
		w.unknown.Add(1)
		return
	}
	idx := vs[version-1]
	at := w.in.events[idx].at
	due := w.start.Load() + int64(at)
	switch {
	case at >= w.tracedFrom:
		w.deliverTraced.record(now - due)
		s := tr.beginAt(spanDeliver, -1, int64(idx), due)
		tr.end(s)
		tr.link(s, w.pubSpan[idx])
	case at >= w.timedFrom:
		w.deliver.record(now - due)
		w.wake.record(int64(wake))
	}
}

// waitUntil sleeps until due and returns how late it woke: the open
// loop issues each event at its due time, or at once when it is behind.
//
// It sleeps in the kernel rather than in time.Sleep: when every P is
// idle the runtime waits for timers in the netpoller, whose timeout is
// in whole milliseconds, so a sub-millisecond time.Sleep wakes up to a
// millisecond late and that lateness, not the daemon, would dominate
// the delivery latency. The Gosched first lets any dispatcher that the
// last publish readied onto this P run, instead of waiting behind a P
// parked in the syscall.
func waitUntil(due time.Time) time.Duration {
	if time.Until(due) > 0 {
		runtime.Gosched()
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
	}
	return time.Since(due)
}

// watchSnap is the daemon and process state at a phase boundary.
type watchSnap struct {
	at  time.Time
	st  watchd.Stats
	res resources
}

func snapshot(d *watchd.Daemon) watchSnap {
	s := watchSnap{st: d.Stats(), res: readResources()}
	s.at = time.Now()
	return s
}

// runWatch runs the open-loop watch workload as watchSubRuns sub-runs. Each
// builds a daemon with watchSessions standing sessions, then one
// generator issues publishes and session replacements at fixed rates on
// a seeded schedule, each at its due time however late the previous one
// ran. In a traced run the last sub-run's schedule goes on into a traced
// phase.
func runWatch(cfg config) (*result, error) {
	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer(1<<12, clockEpoch)
	}
	timed := cfg.timed() / watchSubRuns
	r := rng{cfg.seed}
	res := &result{}
	var subs []subRun
	var setups []float64
	var x layerExtras
	for k := 0; k < watchSubRuns; k++ {
		traced := cfg.trace && k == watchSubRuns-1
		length := watchWarmup + timed
		if traced {
			length += cfg.timed()
		}
		w := newWatchRun(genWatch(&r, length), watchWarmup, watchWarmup+timed)
		sub, setup, tr, gen, err := w.run(res, setupTr, traced)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
		setups = append(setups, setup)
		if !traced {
			continue
		}
		recorded := tr.recorded()
		if err := saveSpans(cfg, recorded); err != nil {
			return nil, err
		}
		untraced := w.deliver.quantile(0.5)
		x = layerExtras{
			gen:       gen,
			spans:     aggregateSpans(recorded),
			setup:     aggregateSpans(setupTr.recorded()),
			overhead:  ratio(w.deliverTraced.quantile(0.5), untraced) - 1,
			overheadN: w.deliverTraced.count(),
		}
		res.notef("traced phase: %d spans; deliver p50 %.1f us traced vs %.1f us untraced",
			len(recorded), w.deliverTraced.quantile(0.5)/1e3, untraced/1e3)
	}
	res.notef("op latency is delivery latency: a publish's due time to the OnEvent callback for its version")
	endToEnd(res, subs, setups)
	all := pool(subs)
	res.notef("deliver_p50_us %.1f, deliver_p99_us %.1f", all.lat.quantile(0.5)/1e3, all.lat.quantile(0.99)/1e3)
	res.notef("generator lateness p50 %.1f us, p99 %.1f us", all.late.quantile(0.5)/1e3, all.late.quantile(0.99)/1e3)
	if cfg.trace {
		layerMetrics(res, all, x)
	}
	return res, nil
}

// run runs the sub-run: it builds the daemon and the standing sessions
// (timed as set-up), runs the schedule, lets the sessions catch up and
// closes the daemon, recording failed operations and checks in res. It
// returns the untraced phase's figures, the set-up time, the tracer of
// the traced phase (nil when untraced) and the counters after set-up.
func (w *watchRun) run(res *result, setupTr *tracer, traced bool) (subRun, float64, *tracer, autosynch.Stats, error) {
	t0 := time.Now()
	s := setupTr.begin(spanNew, -1, 0)
	d := watchd.New(watchd.Config{
		Keys: watchKeys, Shards: watchShards, Dispatchers: watchDispatchers,
		OnEvent: w.onEvent,
	})
	setupTr.end(s)
	standing := make([]*watchd.Session, watchSessions)
	for i, k := range w.in.sessionKeys {
		sess, err := d.Register(k)
		if err != nil {
			d.Close()
			return subRun{}, 0, nil, autosynch.Stats{}, fmt.Errorf("set-up: register session %d: %w", i, err)
		}
		standing[i] = sess
	}
	setup := time.Since(t0).Seconds()
	gen := d.Stats().Monitor
	res.attempted += watchSessions

	// The generator. Counters are snapshotted at the phase boundaries,
	// before the first event of each phase.
	var snaps []watchSnap
	var tr *tracer
	var publishes int64 // in the untraced measured phase
	start := time.Now()
	w.start.Store(int64(start.Sub(clockEpoch)))
	for i, ev := range w.in.events {
		if ev.at >= w.timedFrom && len(snaps) == 0 || traced && ev.at >= w.tracedFrom && len(snaps) == 1 {
			snaps = append(snaps, snapshot(d))
			if len(snaps) == 2 {
				tr = newTracer(traceCapacity, clockEpoch)
				w.tr.Store(tr)
			}
		}
		late := waitUntil(start.Add(ev.at))
		measured := len(snaps) == 1
		if measured {
			w.late.record(int64(late))
		}
		res.attempted++
		if ev.victim < 0 {
			s := tr.begin(spanPublish, -1, int64(i))
			w.pubSpan[i] = s
			_, err := d.Publish(ev.key)
			tr.end(s)
			if err != nil {
				res.failed++
			} else if measured {
				publishes++
			}
			continue
		}
		s := tr.begin(spanRegister, -1, int64(i))
		sess, err := d.Register(ev.key)
		tr.end(s)
		if err != nil {
			res.failed++ // a rejected registration; the victim stays
			continue
		}
		s = tr.begin(spanCancel, -1, int64(i))
		standing[ev.victim].Cancel()
		tr.end(s)
		standing[ev.victim] = sess
	}
	if len(snaps) == 1 {
		snaps = append(snaps, snapshot(d))
	}
	w.tr.Store(nil)

	lost := w.drain(d, standing)
	res.failed += lost
	if lost > 0 {
		res.failf("watch: %d publishes not seen by a standing session on their key within %v", lost, watchDrain)
	}
	if err := d.Close(); err != nil {
		res.failf("watch: close: %v", err)
	}
	res.attempted += w.renews.Load()
	res.failed += w.renewErrs.Load() + w.unknown.Load()
	if n := w.renewErrs.Load(); n > 0 {
		res.failf("watch: %d renewals failed", n)
	}
	if n := w.unknown.Load(); n > 0 {
		res.failf("watch: %d deliveries of a version never published", n)
	}

	a, b := snaps[0], snaps[1]
	secs, delivered := b.at.Sub(a.at).Seconds(), int64(b.st.Delivered-a.st.Delivered)
	sub := subRun{
		secs:      secs,
		ops:       delivered,
		rates:     []float64{ratio(float64(delivered), secs)},
		lat:       &w.deliver,
		core:      subStats(b.st.Monitor, a.st.Monitor),
		used:      resourceDelta(&a.res, &b.res),
		publishes: publishes,
		wake:      &w.wake,
		late:      &w.late,
	}
	return sub, setup, tr, gen, nil
}

// drain waits until every standing session has seen its key's current
// version, or watchDrain passes, and returns the publishes still unseen:
// for each key, the versions its furthest-behind session missed.
func (w *watchRun) drain(d *watchd.Daemon, standing []*watchd.Session) int64 {
	deadline := time.Now().Add(watchDrain)
	for {
		behind := make(map[uint64]int64)
		for _, s := range standing {
			v, err := d.Version(s.Key())
			if err != nil {
				panic(err) // standing keys come from the schedule and are in range
			}
			if lag := v - s.Seen(); lag > behind[s.Key()] {
				behind[s.Key()] = lag
			}
		}
		var lost int64
		for _, lag := range behind {
			lost += lag
		}
		if lost == 0 || time.Now().After(deadline) {
			return lost
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// subStats returns the counter deltas a − b of the fields the per-layer
// metrics read.
func subStats(a, b autosynch.Stats) autosynch.Stats {
	return autosynch.Stats{
		Awaits:         a.Awaits - b.Awaits,
		FastPath:       a.FastPath - b.FastPath,
		Signals:        a.Signals - b.Signals,
		Broadcasts:     a.Broadcasts - b.Broadcasts,
		Wakeups:        a.Wakeups - b.Wakeups,
		FutileWakeups:  a.FutileWakeups - b.FutileWakeups,
		Claims:         a.Claims - b.Claims,
		FutileClaims:   a.FutileClaims - b.FutileClaims,
		RelayCalls:     a.RelayCalls - b.RelayCalls,
		PredicateEvals: a.PredicateEvals - b.PredicateEvals,
		TagChecks:      a.TagChecks - b.TagChecks,
		Registrations:  a.Registrations - b.Registrations,
		Reuses:         a.Reuses - b.Reuses,
		Evictions:      a.Evictions - b.Evictions,
	}
}
