package main

import "time"

// rng is splitmix64: every input array is a pure function of the seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Parameters of the Fig. 14 parameterized bounded buffer. The capacity
// is twice the largest batch, which keeps the loop live: whenever the
// producer is blocked, count > cap − maxBatch ≥ maxBatch, so every
// waiting consumer's batch is available.
const (
	pbufConsumers = 64
	pbufMaxBatch  = 128
	pbufCap       = 2 * pbufMaxBatch
	pbufSeqLen    = 1 << 12 // batches per goroutine; a worker cycles through its own
)

// pbufInputs are the batch sequences shared by pbuf and pbuf-explicit.
type pbufInputs struct {
	producer  []uint8   // put sizes, 1..pbufMaxBatch
	consumers [][]uint8 // take sizes per consumer, 1..pbufMaxBatch
}

func genPbuf(seed uint64) *pbufInputs {
	r := rng{seed}
	batches := func() []uint8 {
		b := make([]uint8, pbufSeqLen)
		for i := range b {
			b[i] = uint8(1 + r.intn(pbufMaxBatch))
		}
		return b
	}
	in := &pbufInputs{producer: batches(), consumers: make([][]uint8, pbufConsumers)}
	for c := range in.consumers {
		in.consumers[c] = batches()
	}
	return in
}

// roundrobinSize is the ring of Fig. 11 / Table 1.
const roundrobinSize = 128

// genSpawnOrder returns the order in which the ring's goroutines are
// started. The ring has no data input; the seed only varies the start
// order.
func genSpawnOrder(seed uint64) []int {
	r := rng{seed}
	order := make([]int, roundrobinSize)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Parameters of the watch workload.
const (
	watchKeys        = 4096
	watchShards      = 8
	watchDispatchers = 2
	watchSessions    = 10000
	watchPublishRate = 2000 // publishes per second
	watchChurnRate   = 200  // session replacements per second
)

// watchEvent is one scheduled generator action: a publish on key, or a
// replacement that registers a session on key and cancels the standing
// session in slot victim.
type watchEvent struct {
	at     time.Duration // due time, from the start of the schedule
	key    uint64
	victim int32 // -1 for a publish
}

type watchInputs struct {
	sessionKeys []uint64     // keys of the standing sessions, registered in set-up
	events      []watchEvent // the open-loop schedule, in due order
}

// genWatch draws one sub-run's inputs from r: the standing sessions'
// keys and the schedule for d of generator time, publishes and
// replacements interleaved at their fixed rates, every eleventh event a
// replacement.
func genWatch(r *rng, d time.Duration) *watchInputs {
	in := &watchInputs{sessionKeys: make([]uint64, watchSessions)}
	for i := range in.sessionKeys {
		in.sessionKeys[i] = uint64(r.intn(watchKeys))
	}
	const rate = watchPublishRate + watchChurnRate
	const every = rate / watchChurnRate
	n := int(d.Seconds() * rate)
	in.events = make([]watchEvent, n)
	for i := range in.events {
		at := time.Duration(int64(i) * int64(time.Second) / rate)
		ev := watchEvent{at: at, key: uint64(r.intn(watchKeys)), victim: -1}
		if i%every == every-1 {
			ev.victim = int32(r.intn(watchSessions))
		}
		in.events[i] = ev
	}
	return in
}
