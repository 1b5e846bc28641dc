package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	_ "repro/internal/problems" // links the generated evaluators of the pbuf and roundrobin predicates
)

// Closed-loop run shape. Each sub-run builds a fresh instance, and the
// warm-up lets its entry caches, inactive lists and goroutine stacks
// reach steady state before anything is measured. Before the first
// sub-run one instance runs unmeasured for closedFirstWarmup, while the
// process's heap and free goroutine list grow to their working size.
const (
	closedFirstWarmup = 500 * time.Millisecond
	closedWarmup      = 50 * time.Millisecond
	closedSetupReps   = 5
	sampleEvery       = 16 // 1 in sampleEvery ops is timed
	window            = 125 * time.Millisecond
)

// control is what runClosed shares with one closed-loop instance.
// Workers start blocked on gate and leave when stopping is set.
type control struct {
	gate     chan struct{}
	abort    atomic.Bool // set before gate closes to discard a set-up repetition
	ready    sync.WaitGroup
	workers  sync.WaitGroup
	stopping atomic.Bool
	lat      atomic.Pointer[hist]   // sampled op latencies; nil outside the measured phase
	tr       atomic.Pointer[tracer] // nil outside the traced phase
	setupTr  *tracer                // records compile spans; nil when untraced
}

func newControl(setupTr *tracer) *control {
	return &control{gate: make(chan struct{}), setupTr: setupTr}
}

// spawn starts one worker, which parks on the gate until the run starts.
func (c *control) spawn(work func()) {
	c.ready.Add(1)
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		c.ready.Done()
		<-c.gate
		if !c.abort.Load() {
			work()
		}
	}()
}

func (c *control) compile(m *autosynch.Monitor, src string) *autosynch.Predicate {
	s := c.setupTr.begin(spanCompile, -1, 0)
	p := m.MustCompile(src)
	c.setupTr.end(s)
	return p
}

// sampleStart returns the start time of op i if the op is timed, or 0.
func (c *control) sampleStart(i int) int64 {
	if i%sampleEvery != 0 || c.lat.Load() == nil {
		return 0
	}
	return nanotime()
}

func (c *control) sampleEnd(t0 int64) {
	if t0 == 0 {
		return
	}
	if h := c.lat.Load(); h != nil {
		h.record(nanotime() - t0)
	}
}

// closedLoop is one built instance of a closed-loop workload. Its
// functions read the instance's state inside its monitor.
type closedLoop struct {
	ctl        *control
	ops        func() int64 // ops completed so far
	stats      func() autosynch.Stats
	resetStats func()
	// finish stops the workers, waits for them, and checks the final
	// state. It reports the Await calls made and those that failed.
	finish func() (awaits, failed int64, err error)
}

// discard ends a set-up repetition whose workers never started.
func (l *closedLoop) discard() {
	l.ctl.abort.Store(true)
	close(l.ctl.gate)
	l.ctl.workers.Wait()
}

// measure runs the loop for d with op sampling on and returns what the
// interval saw.
func (l *closedLoop) measure(d time.Duration) subRun {
	l.resetStats()
	r0 := readResources()
	ops0 := l.ops()
	t0 := time.Now()
	lat := new(hist)
	l.ctl.lat.Store(lat)
	var rates []float64
	prevOps, prevT := ops0, t0
	for end := t0.Add(d); prevT.Before(end); {
		time.Sleep(min(window, time.Until(end)))
		ops, now := l.ops(), time.Now()
		if dt := now.Sub(prevT).Seconds(); dt >= window.Seconds()/2 {
			rates = append(rates, float64(ops-prevOps)/dt)
		}
		prevOps, prevT = ops, now
	}
	if len(rates) == 0 { // a phase shorter than half a window
		rates = append(rates, float64(prevOps-ops0)/prevT.Sub(t0).Seconds())
	}
	l.ctl.lat.Store(nil)
	st := l.stats()
	r1 := readResources()
	return subRun{secs: prevT.Sub(t0).Seconds(), ops: prevOps - ops0, rates: rates, lat: lat, core: st, used: resourceDelta(&r0, &r1)}
}

// trace runs the loop with every public call spanned until d passes or
// the span arena fills, and returns the tracer.
func (l *closedLoop) trace(d time.Duration) *tracer {
	tr := newTracer(traceCapacity, clockEpoch)
	l.ctl.tr.Store(tr)
	for end := time.Now().Add(d); time.Now().Before(end) && !tr.full(); {
		time.Sleep(5 * time.Millisecond)
	}
	l.ctl.tr.Store(nil)
	return tr
}

type builder func(c *control) *closedLoop

// setUp builds the workload closedSetupReps times, timing each build up
// to the point where every worker is parked on the gate, and keeps the
// last instance.
func setUp(build builder, setupTr *tracer) ([]float64, *closedLoop) {
	setups := make([]float64, closedSetupReps)
	var l *closedLoop
	for r := range setups {
		c := newControl(setupTr)
		t0 := time.Now()
		inst := build(c)
		c.ready.Wait()
		setups[r] = time.Since(t0).Seconds()
		if r < len(setups)-1 {
			inst.discard()
		} else {
			l = inst
		}
	}
	return setups, l
}

// runClosed runs a closed-loop workload as closedSubRuns sub-runs, each on a
// freshly built instance: set-up, warm-up and an untraced measured
// phase. In a traced run the last sub-run goes on into a traced phase.
// The process warm-up instance's operations and checks count toward the
// result like any other's.
func runClosed(cfg config, build builder) (*result, error) {
	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer(1<<12, clockEpoch)
	}
	res := &result{}
	var subs []subRun
	var setups []float64
	var gen autosynch.Stats
	var tr *tracer
	for k := -1; k < closedSubRuns; k++ { // k = -1 is the process warm-up
		s, l := setUp(build, setupTr)
		gen = l.stats() // compile-time counters, before measure resets them
		close(l.ctl.gate)
		if k < 0 {
			time.Sleep(closedFirstWarmup)
		} else {
			setups = append(setups, s...)
			time.Sleep(closedWarmup)
			subs = append(subs, l.measure(cfg.timed()/closedSubRuns))
		}
		if cfg.trace && k == closedSubRuns-1 {
			// The arena is allocated only now so that it does not change
			// the heap the untraced phases ran with.
			tr = l.trace(cfg.timed())
		}
		awaits, failed, err := l.finish()
		res.attempted += awaits
		res.failed += failed
		if err != nil {
			res.failf("%v", err)
		}
	}
	endToEnd(res, subs, setups)
	if !cfg.trace {
		return res, nil
	}
	recorded := tr.recorded()
	if err := saveSpans(cfg, recorded); err != nil {
		return nil, err
	}
	spans := aggregateSpans(recorded)
	last := subs[len(subs)-1]
	untraced := float64(last.ops) / last.secs
	layerMetrics(res, pool(subs), layerExtras{
		gen:       gen,
		spans:     spans,
		setup:     aggregateSpans(setupTr.recorded()),
		overhead:  1 - ratio(spans.opRate(), untraced),
		overheadN: spans.dur[spanOp].count(),
	})
	res.notef("traced phase: %d spans, %.0f ops/s traced vs %.0f untraced", len(recorded), spans.opRate(), untraced)
	return res, nil
}

// saveSpans writes a traced run's spans to <trace-dir>/spans-<workload>.csv.
func saveSpans(cfg config, spans []span) error {
	if cfg.traceDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(cfg.traceDir, "spans-"+cfg.workload+".csv"))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// pbufBuilder is Fig. 14's parameterized bounded buffer on AutoSynch:
// one producer putting batches, pbufConsumers consumers taking batches,
// every wait a complex predicate over a thread-local batch size.
func pbufBuilder(seed uint64) builder {
	in := genPbuf(seed)
	return func(c *control) *closedLoop {
		m := autosynch.New()
		count := m.NewInt("count", 0)
		m.NewInt("cap", pbufCap)
		stop := m.NewBool("stop", false)
		hasRoom := c.compile(m, "count + k <= cap || stop")
		hasItems := c.compile(m, "count >= num")
		// Guarded by m.
		var produced, consumed, ops, awaits, failed int64

		var producer, consumers sync.WaitGroup
		producer.Add(1)
		c.spawn(func() {
			defer producer.Done()
			for i := 0; ; i++ {
				k := int64(in.producer[i%pbufSeqLen])
				tr := c.tr.Load()
				op := tr.begin(spanPut, 0, int64(i))
				s := tr.begin(spanEnter, 0, int64(i))
				m.Enter()
				tr.end(s)
				s = tr.begin(spanAwait, 0, int64(i))
				err := hasRoom.Await(autosynch.Bind("k", k))
				tr.end(s)
				awaits++
				done := stop.Get()
				if err != nil {
					failed++
				} else if !done {
					count.Add(k)
					produced += k
				}
				s = tr.begin(spanExit, 0, int64(i))
				m.Exit()
				tr.end(s)
				tr.end(op)
				if done {
					return
				}
			}
		})
		for ci, batches := range in.consumers {
			gid := int32(ci + 1)
			consumers.Add(1)
			c.spawn(func() {
				defer consumers.Done()
				for i := 0; !c.stopping.Load(); i++ {
					num := int64(batches[i%pbufSeqLen])
					tr := c.tr.Load()
					t0 := c.sampleStart(i + ci)
					op := tr.begin(spanOp, gid, int64(i))
					s := tr.begin(spanEnter, gid, int64(i))
					m.Enter()
					tr.end(s)
					s = tr.begin(spanAwait, gid, int64(i))
					err := hasItems.Await(autosynch.Bind("num", num))
					tr.end(s)
					awaits++
					if err != nil {
						failed++
					} else {
						count.Add(-num)
						consumed += num
						ops++
					}
					s = tr.begin(spanExit, gid, int64(i))
					m.Exit()
					tr.end(s)
					tr.end(op)
					c.sampleEnd(t0)
				}
			})
		}
		return &closedLoop{
			ctl:        c,
			ops:        func() int64 { m.Enter(); defer m.Exit(); return ops },
			stats:      m.Stats,
			resetStats: m.ResetStats,
			finish: func() (int64, int64, error) {
				c.stopping.Store(true)
				consumers.Wait()
				// The producer may be waiting for room that no consumer
				// will make; stop releases it through its predicate.
				m.Enter()
				stop.Set(true)
				m.Exit()
				producer.Wait()
				m.Enter()
				defer m.Exit()
				if d := produced - consumed - count.Get(); d != 0 {
					return awaits, failed, fmt.Errorf("pbuf: produced − consumed − occupancy = %d, want 0", d)
				}
				return awaits, failed, nil
			},
		}
	}
}

// pbufExplicitBuilder runs the same batch sequences on the Explicit
// mechanism with the signalAll program: nobody knows which waiting
// consumer's batch fits, so every put and take broadcasts.
func pbufExplicitBuilder(seed uint64) builder {
	in := genPbuf(seed)
	return func(c *control) *closedLoop {
		m := autosynch.NewExplicit()
		space, items := m.NewCond(), m.NewCond()
		// Guarded by m.
		var count, produced, consumed, ops, awaits int64
		stop := false

		var producer, consumers sync.WaitGroup
		producer.Add(1)
		c.spawn(func() {
			defer producer.Done()
			for i := 0; ; i++ {
				k := int64(in.producer[i%pbufSeqLen])
				tr := c.tr.Load()
				op := tr.begin(spanPut, 0, int64(i))
				s := tr.begin(spanEnter, 0, int64(i))
				m.Enter()
				tr.end(s)
				s = tr.begin(spanAwait, 0, int64(i))
				space.Await(func() bool { return count+k <= pbufCap || stop })
				tr.end(s)
				awaits++
				done := stop
				if !done {
					count += k
					produced += k
					s = tr.begin(spanBroadcast, 0, int64(i))
					items.Broadcast()
					tr.end(s)
				}
				s = tr.begin(spanExit, 0, int64(i))
				m.Exit()
				tr.end(s)
				tr.end(op)
				if done {
					return
				}
			}
		})
		for ci, batches := range in.consumers {
			gid := int32(ci + 1)
			consumers.Add(1)
			c.spawn(func() {
				defer consumers.Done()
				for i := 0; !c.stopping.Load(); i++ {
					num := int64(batches[i%pbufSeqLen])
					tr := c.tr.Load()
					t0 := c.sampleStart(i + ci)
					op := tr.begin(spanOp, gid, int64(i))
					s := tr.begin(spanEnter, gid, int64(i))
					m.Enter()
					tr.end(s)
					s = tr.begin(spanAwait, gid, int64(i))
					items.Await(func() bool { return count >= num })
					tr.end(s)
					awaits++
					count -= num
					consumed += num
					ops++
					s = tr.begin(spanBroadcast, gid, int64(i))
					space.Broadcast()
					tr.end(s)
					s = tr.begin(spanExit, gid, int64(i))
					m.Exit()
					tr.end(s)
					tr.end(op)
					c.sampleEnd(t0)
				}
			})
		}
		return &closedLoop{
			ctl:        c,
			ops:        func() int64 { m.Enter(); defer m.Exit(); return ops },
			stats:      m.Stats,
			resetStats: m.ResetStats,
			finish: func() (int64, int64, error) {
				c.stopping.Store(true)
				consumers.Wait()
				m.Enter()
				stop = true
				space.Broadcast()
				m.Exit()
				producer.Wait()
				m.Enter()
				defer m.Exit()
				if d := produced - consumed - count; d != 0 {
					return awaits, 0, fmt.Errorf("pbuf-explicit: produced − consumed − occupancy = %d, want 0", d)
				}
				return awaits, 0, nil
			},
		}
	}
}

// roundrobinBuilder is the Fig. 11 / Table 1 ring on AutoSynch:
// roundrobinSize goroutines, goroutine id waiting on turn == id. Every
// turn parks and is woken by its predecessor's Exit, and the Exit span is
// recorded as the cause of the successor's Await.
func roundrobinBuilder(seed uint64) builder {
	order := genSpawnOrder(seed)
	return func(c *control) *closedLoop {
		m := autosynch.New()
		turn := m.NewInt("turn", 0)
		myTurn := c.compile(m, "turn == id")
		const none = math.MaxInt64
		// Guarded by m.
		var ops, awaits, failed int64
		lastRound := int64(none) // the round after which every goroutine leaves
		turns := make([]int64, roundrobinSize)
		handoff := int32(-1) // Exit span of the latest turn

		for _, id := range order {
			gid := int32(id)
			c.spawn(func() {
				for r := int64(0); ; {
					tr := c.tr.Load()
					t0 := c.sampleStart(int(r) + id)
					op := tr.begin(spanOp, gid, r)
					s := tr.begin(spanEnter, gid, r)
					m.Enter()
					tr.end(s)
					s = tr.begin(spanAwait, gid, r)
					err := myTurn.Await(autosynch.Bind("id", int64(id)))
					tr.end(s)
					awaits++
					if err != nil {
						// The turn was not taken; wait for it again.
						failed++
						m.Exit()
						tr.end(op)
						continue
					}
					tr.link(s, handoff)
					turn.Set((turn.Get() + 1) % roundrobinSize)
					ops++
					turns[id]++
					// Goroutine 0 opens each round, so the round it sees
					// stopping in is the last one for the whole ring.
					if id == 0 && lastRound == none && c.stopping.Load() {
						lastRound = r
					}
					last := r == lastRound
					s = tr.begin(spanExit, gid, r)
					handoff = s
					m.Exit()
					tr.end(s)
					tr.end(op)
					c.sampleEnd(t0)
					if last {
						return
					}
					r++
				}
			})
		}
		return &closedLoop{
			ctl:        c,
			ops:        func() int64 { m.Enter(); defer m.Exit(); return ops },
			stats:      m.Stats,
			resetStats: m.ResetStats,
			finish: func() (int64, int64, error) {
				c.stopping.Store(true)
				c.workers.Wait()
				m.Enter()
				defer m.Exit()
				if t := turn.Get(); t != 0 {
					return awaits, failed, fmt.Errorf("roundrobin: turn = %d after the last round, want 0", t)
				}
				for id, n := range turns {
					if n != turns[0] {
						return awaits, failed, fmt.Errorf("roundrobin: goroutine %d took %d turns, goroutine 0 took %d", id, n, turns[0])
					}
				}
				if ops != turns[0]*roundrobinSize {
					return awaits, failed, fmt.Errorf("roundrobin: %d turns counted, want %d", ops, turns[0]*roundrobinSize)
				}
				return awaits, failed, nil
			},
		}
	}
}
