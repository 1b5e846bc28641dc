package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// The tests in this file drive randomized mixed workloads — many
// predicate shapes, fluctuating waiter populations, all tag kinds at
// once — and check the global invariants that must survive any schedule:
// conservation of the shared counters, predicate truth on return from
// Await, zero broadcasts, and structural emptiness after quiescence.

type fuzzRng uint64

func (r *fuzzRng) next() uint64 {
	v := uint64(*r)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*r = fuzzRng(v)
	return v
}

func TestFuzzMixedPredicateShapes(t *testing.T) {
	for _, tagging := range []bool{true, false} {
		tagging := tagging
		t.Run(fmt.Sprintf("tagging=%t", tagging), func(t *testing.T) {
			t.Parallel()
			var opts []Option
			if !tagging {
				opts = append(opts, WithoutTagging())
			}
			m := New(opts...)
			level := m.NewInt("level", 0)
			phase := m.NewInt("phase", 0)
			open := m.NewBool("open", true)

			const workers = 12
			const opsEach = 300
			var violations int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := fuzzRng(seed*2654435761 + 1)
					for i := 0; i < opsEach; i++ {
						switch rng.next() % 6 {
						case 0: // equivalence wait on phase
							k := int64(rng.next() % 4)
							m.Enter()
							if err := m.Await("phase == k || !open", BindInt("k", k)); err != nil {
								violations++
							} else if phase.Get() != k && open.Get() {
								violations++
							}
							m.Exit()
						case 1: // threshold wait on level
							k := int64(rng.next()%8) + 1
							m.Enter()
							if err := m.Await("level >= k || !open", BindInt("k", k)); err != nil {
								violations++
							} else if level.Get() < k && open.Get() {
								violations++
							}
							level.Add(-1)
							m.Exit()
						case 2: // untaggable wait (nonlinear in shared)
							k := int64(rng.next()%4) + 1
							m.Enter()
							if err := m.Await("level * level >= k || !open", BindInt("k", k)); err != nil {
								violations++
							}
							m.Exit()
						case 3: // producer: raise level, rotate phase
							m.Enter()
							level.Add(2)
							phase.Set(int64(rng.next() % 4))
							m.Exit()
						case 4: // closure predicate
							k := int64(rng.next()%6) + 1
							m.Enter()
							m.AwaitFunc(func() bool { return level.Get() >= k || !open.Get() })
							m.Exit()
						case 5: // toggle the gate briefly (releases everyone)
							m.Enter()
							open.Set(rng.next()%8 != 0)
							m.Exit()
						}
					}
				}(uint64(w) + 1)
			}
			// A pump keeps the system live: whatever the random mix did,
			// eventually open the gate and raise the level so every
			// waiter can get out. The pump is event-driven in both
			// directions: it fires only when a worker is actually parked,
			// and after firing it yields until the wake-up lands, so it
			// cannot monopolize the monitor and starve the very waiters
			// it released.
			stopPump := make(chan struct{})
			var pump sync.WaitGroup
			pump.Add(1)
			go func() {
				defer pump.Done()
				for {
					select {
					case <-stopPump:
						return
					default:
					}
					if !testutil.Eventually(5*time.Millisecond, 50*time.Microsecond,
						func() bool { return m.Waiting() > 0 }) {
						continue // nobody parked; recheck the stop signal
					}
					woken := m.Stats().Wakeups
					m.Enter()
					open.Set(true)
					level.Add(3)
					phase.Set(int64(time.Now().UnixNano()) % 4)
					m.Exit()
					testutil.Eventually(5*time.Millisecond, 50*time.Microsecond, func() bool {
						return m.Stats().Wakeups > woken || m.Waiting() == 0
					})
				}
			}()
			waitTimeout(t, 60*time.Second, "fuzz workers", wg.Wait)
			close(stopPump)
			pump.Wait()

			if violations != 0 {
				t.Errorf("%d invariant violations", violations)
			}
			s := m.Stats()
			if s.Broadcasts != 0 {
				t.Errorf("broadcasts = %d", s.Broadcasts)
			}
			// Quiescent: nobody waits, so the tag structures hold only
			// static entries and the None list only static/none entries.
			active, _, _, _ := m.DebugCounts()
			if active > 40 { // static predicates only; bounded by distinct shapes
				t.Errorf("active entries after quiescence = %d", active)
			}
		})
	}
}

func TestFuzzConservationAcrossMechanisms(t *testing.T) {
	// The same token-passing workload on AutoSynch, AutoSynch-T, and
	// Baseline must conserve tokens exactly.
	const producers, consumers, opsEach = 6, 6, 250

	type mech struct {
		name string
		run  func() (produced, consumed int64, broadcasts uint64)
	}
	mechs := []mech{
		{"autosynch", func() (int64, int64, uint64) {
			m := New()
			tokens := m.NewInt("tokens", 0)
			var produced, consumed int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := fuzzRng(seed)
					for i := 0; i < opsEach; i++ {
						n := int64(rng.next()%5) + 1
						m.Do(func() { tokens.Add(n); produced += n })
					}
				}(uint64(p) + 1)
			}
			// Consumers mirror the producers' seeds, so total demand equals
			// total production exactly and every schedule terminates.
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := fuzzRng(seed)
					for i := 0; i < opsEach; i++ {
						n := int64(rng.next()%5) + 1
						m.Enter()
						if err := m.Await("tokens >= n", BindInt("n", n)); err != nil {
							t.Error(err)
						}
						tokens.Add(-n)
						consumed += n
						m.Exit()
					}
				}(uint64(c) + 1)
			}
			doneCh := make(chan struct{})
			go func() { wg.Wait(); close(doneCh) }()
			select {
			case <-doneCh:
			case <-time.After(60 * time.Second):
				t.Fatal("autosynch conservation run deadlocked")
			}
			var rest int64
			m.Do(func() { rest = tokens.Get() })
			return produced, consumed + rest, m.Stats().Broadcasts
		}},
		{"baseline", func() (int64, int64, uint64) {
			b := NewBaseline()
			tokens := int64(0)
			var produced, consumed int64
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := fuzzRng(seed)
					for i := 0; i < opsEach; i++ {
						n := int64(rng.next()%5) + 1
						b.Do(func() { tokens += n; produced += n })
					}
				}(uint64(p) + 1)
			}
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := fuzzRng(seed)
					for i := 0; i < opsEach; i++ {
						n := int64(rng.next()%5) + 1
						b.Enter()
						b.Await(func() bool { return tokens >= n })
						tokens -= n
						consumed += n
						b.Exit()
					}
				}(uint64(c) + 1)
			}
			doneCh := make(chan struct{})
			go func() { wg.Wait(); close(doneCh) }()
			select {
			case <-doneCh:
			case <-time.After(60 * time.Second):
				t.Fatal("baseline conservation run deadlocked")
			}
			return produced, consumed + tokens, 0
		}},
	}

	// The producers inject the same seeded token amounts in both
	// mechanisms, so total production matches exactly; consumption +
	// remainder must equal it on every run.
	var totals []int64
	for _, mc := range mechs {
		produced, accounted, _ := mc.run()
		if produced != accounted {
			t.Errorf("%s: produced %d, accounted %d", mc.name, produced, accounted)
		}
		totals = append(totals, produced)
	}
	if totals[0] != totals[1] {
		t.Errorf("seeded production differs across mechanisms: %v", totals)
	}
}

func TestFuzzWaiterChurn(t *testing.T) {
	// Rapidly appearing and disappearing waiters with clashing canonical
	// predicates stress activate/deactivate/reuse and the LRU.
	m := New(WithInactiveLimit(8))
	x := m.NewInt("x", 0)
	var wg sync.WaitGroup
	const churners = 10
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := fuzzRng(seed)
			for i := 0; i < 400; i++ {
				k := int64(rng.next() % 20)
				m.Enter()
				if err := m.Await("x >= k", BindInt("k", k)); err != nil {
					t.Error(err)
				}
				x.Set(k / 2)
				m.Exit()
				m.Do(func() { x.Add(1) })
			}
		}(uint64(c)*13 + 7)
	}
	// The pump fires only while a churner is parked, and after each shove
	// it yields until the wake-up lands (see TestFuzzMixedPredicateShapes
	// for the rationale) — or at once when the shove relayed no signal,
	// because then no wake-up is coming.
	pumpStop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-pumpStop:
				return
			default:
			}
			if !testutil.Eventually(5*time.Millisecond, 50*time.Microsecond,
				func() bool { return m.Waiting() > 0 }) {
				continue // nobody parked; recheck the stop signal
			}
			woken := m.Stats().Wakeups
			m.Do(func() { x.Add(2) })
			testutil.Eventually(5*time.Millisecond, 50*time.Microsecond, func() bool {
				return m.Stats().Wakeups > woken || m.Waiting() == 0 || m.PendingSignals() == 0
			})
		}
	}()
	waitTimeout(t, 60*time.Second, "churners", wg.Wait)
	close(pumpStop)
	pump.Wait()
	if s := m.Stats(); s.Broadcasts != 0 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}
	if _, inactive, _, _ := m.DebugCounts(); inactive > 8 {
		t.Errorf("inactive = %d exceeds limit 8", inactive)
	}
}
