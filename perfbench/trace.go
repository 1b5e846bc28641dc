package main

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// spanKind names the public call (or benchmark-level unit) a span
// surrounds. The per-layer metrics are read off these spans.
type spanKind uint8

const (
	spanOp        spanKind = iota // one closed-loop op: Enter call to Exit return
	spanPut                       // one producer put in pbuf / pbuf-explicit
	spanEnter                     // Monitor.Enter or Explicit.Enter
	spanAwait                     // Predicate.Await or Cond.Await
	spanExit                      // Monitor.Exit or Explicit.Exit
	spanBroadcast                 // Cond.Broadcast
	spanCompile                   // Monitor.MustCompile
	spanNew                       // watchd.New
	spanPublish                   // Daemon.Publish
	spanRegister                  // Daemon.Register
	spanCancel                    // Session.Cancel
	spanRenew                     // Session.Renew
	spanDeliver                   // publish due time to the OnEvent callback
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "put", "enter", "await", "exit", "broadcast", "compile",
	"watchd.new", "publish", "register", "cancel", "renew", "deliver",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// cause is the index of the span that caused this one, or -1.
type span struct {
	start, end int64
	op         int64 // op or request id, unique per goroutine
	gid        int32 // benchmark goroutine id (worker index)
	cause      int32
	kind       spanKind
}

// tracer keeps spans in a fixed in-memory arena; nothing is written out
// until the run ends. A nil *tracer is the untraced mode: begin returns
// -1 without reading the clock, and end and link ignore -1, so the
// untraced hot path pays one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
}

func newTracer(capacity int, epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when t is nil or the
// arena is full.
func (t *tracer) begin(kind spanKind, gid int32, op int64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: t.now(), op: op, gid: gid, cause: -1, kind: kind}
	return int32(i)
}

// beginAt opens a span that started at start (nanoseconds since epoch),
// for intervals whose start is a schedule time rather than a call.
func (t *tracer) beginAt(kind spanKind, gid int32, op, start int64) int32 {
	i := t.begin(kind, gid, op)
	if i >= 0 {
		t.spans[i].start = start
	}
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// link records that span cause caused span i.
func (t *tracer) link(i, cause int32) {
	if i >= 0 && cause >= 0 {
		t.spans[i].cause = cause
	}
}

// full reports whether the arena has no room left.
func (t *tracer) full() bool { return t.next.Load() >= int64(len(t.spans)) }

// recorded returns the completed spans. Call it only after every
// goroutine that records into t has finished.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// writeSpans writes spans as CSV: kind, goroutine, op, start and end in
// nanoseconds since the tracer's epoch, and the causing span's row index
// (-1 for none).
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "kind,gid,op,start_ns,end_ns,cause")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", s.kind, s.gid, s.op, s.start, s.end, s.cause)
	}
	return bw.Flush()
}

// spanStats aggregates spans into per-kind duration histograms and
// totals, and the handoff interval along cause links: from the start of
// a causing Exit to the end of the Await it released.
type spanStats struct {
	dur     [numSpanKinds]hist
	total   [numSpanKinds]int64 // summed durations, ns
	handoff hist
	first   int64 // earliest op-span start
	last    int64 // latest op-span end
}

func aggregateSpans(spans []span) *spanStats {
	st := &spanStats{first: -1}
	for _, s := range spans {
		if s.end == 0 {
			continue // begun but not ended when recording stopped
		}
		d := s.end - s.start
		st.dur[s.kind].record(d)
		st.total[s.kind] += d
		if s.kind == spanOp {
			if st.first < 0 || s.start < st.first {
				st.first = s.start
			}
			if s.end > st.last {
				st.last = s.end
			}
		}
		if s.kind == spanAwait && s.cause >= 0 {
			if c := spans[s.cause]; c.kind == spanExit {
				st.handoff.record(s.end - c.start)
			}
		}
	}
	return st
}

// opRate returns op spans per second over the interval they cover.
func (st *spanStats) opRate() float64 {
	n := st.dur[spanOp].count()
	if n == 0 || st.last <= st.first {
		return 0
	}
	return float64(n) / (float64(st.last-st.first) / 1e9)
}
