package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistQuantileExactRange(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for v := int64(1); v <= 100; v++ {
		h.record(v)
	}
	if h.count() != 100 {
		t.Fatalf("count = %d, want 100", h.count())
	}
	// Values below 128 ns have unit buckets, so a quantile lands within
	// one nanosecond of the exact order statistic.
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100}} {
		if got := h.quantile(c.q); math.Abs(got-c.want) > 1 {
			t.Errorf("quantile(%v) = %v, want %v ± 1", c.q, got, c.want)
		}
	}
}

func TestHistQuantileRelativeError(t *testing.T) {
	var h hist
	var vals []int64
	for v := int64(1000); v < 50_000_000; v = v*21/20 + 7 {
		h.record(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := float64(vals[int(q*float64(len(vals)-1))])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/histSub*1.5 {
			t.Errorf("quantile(%v) = %v, exact %v: relative error %.4f", q, got, exact, rel)
		}
	}
}

func TestHistBucketsCoverValues(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 39} {
		lo, w := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d: bucket [%v, %v)", v, lo, lo+w)
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("histIndex(max) = %d, want the last bucket %d", got, histBuckets-1)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b hist
	a.record(10)
	b.record(20)
	b.record(30)
	a.merge(&b)
	if a.count() != 3 || a.quantile(0.5) < 20 || a.quantile(0.5) >= 21 {
		t.Fatalf("merged count %d median %v, want 3 and 20", a.count(), a.quantile(0.5))
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 2, 3}, 2},                   // len/4 = 0: nothing dropped
		{[]float64{100, 1, 2, 3, -50}, 2},         // one value dropped at each end
		{[]float64{9, 1, 5, 3, 7, 2, 8, 4}, 4.75}, // 3, 4, 5, 7 kept
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := genPbuf(7), genPbuf(7), genPbuf(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genPbuf: same seed, different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("genPbuf: different seeds, same inputs")
	}
	for _, seq := range append(a.consumers, a.producer) {
		for _, k := range seq {
			if k < 1 || k > pbufMaxBatch {
				t.Fatalf("batch %d outside 1..%d", k, pbufMaxBatch)
			}
		}
	}
	r1, r2 := rng{3}, rng{3}
	if !reflect.DeepEqual(genWatch(&r1, time.Second), genWatch(&r2, time.Second)) {
		t.Fatal("genWatch: same seed, different inputs")
	}
	if !reflect.DeepEqual(genSpawnOrder(5), genSpawnOrder(5)) {
		t.Fatal("genSpawnOrder: same seed, different order")
	}
}

// The open loop's schedule: fixed rates, due times in order, and every
// eleventh event a session replacement.
func TestWatchSchedule(t *testing.T) {
	r := rng{1}
	in := genWatch(&r, 2*time.Second)
	if want := 2 * (watchPublishRate + watchChurnRate); len(in.events) != want {
		t.Fatalf("%d events in 2s, want %d", len(in.events), want)
	}
	var churn int
	for i, ev := range in.events {
		if i > 0 && ev.at <= in.events[i-1].at {
			t.Fatalf("event %d due at %v, not after %v", i, ev.at, in.events[i-1].at)
		}
		if ev.key >= watchKeys {
			t.Fatalf("event %d on key %d", i, ev.key)
		}
		if ev.victim >= 0 {
			churn++
			if ev.victim >= watchSessions {
				t.Fatalf("event %d victim %d", i, ev.victim)
			}
		}
	}
	if churn != 2*watchChurnRate {
		t.Fatalf("%d replacements in 2s, want %d", churn, 2*watchChurnRate)
	}
}

// A delivery of version v on key k is timed from the due time of the
// v-th scheduled publish on k, and lands in the phase that publish was
// due in.
func TestWatchDeliveryAttribution(t *testing.T) {
	in := &watchInputs{events: []watchEvent{
		{at: 0, key: 1, victim: -1},
		{at: 10, key: 2, victim: -1},
		{at: 20, key: 1, victim: 0},
		{at: 30, key: 1, victim: -1},
		{at: 40, key: 1, victim: -1},
	}}
	w := newWatchRun(in, 25, 35)
	if want := [][]int32{nil, {0, 3, 4}, {1}}; !reflect.DeepEqual(w.pubOf[:3], want) {
		t.Fatalf("pubOf = %v, want %v", w.pubOf[:3], want)
	}
	const start = 1000
	w.start.Store(start)
	w.observe(nil, 1, 1, 5, start+100)     // due at 0, in the warm-up
	w.observe(nil, 1, 2, 7, start+30+500)  // due at 30, untraced phase
	w.observe(nil, 1, 3, 9, start+40+2000) // due at 40, traced phase
	w.observe(nil, 2, 2, 9, start+50)      // key 2 has one version
	if w.deliver.count() != 1 || math.Abs(w.deliver.quantile(0.5)-500) > 500/histSub {
		t.Errorf("untraced deliveries: n=%d p50=%v, want one of 500ns", w.deliver.count(), w.deliver.quantile(0.5))
	}
	if w.wake.count() != 1 || w.wake.quantile(0.5) < 7 || w.wake.quantile(0.5) >= 8 {
		t.Errorf("wake-to-claim: n=%d p50=%v, want one of 7ns", w.wake.count(), w.wake.quantile(0.5))
	}
	if w.deliverTraced.count() != 1 || w.deliverTraced.quantile(0.5) < 1984 || w.deliverTraced.quantile(0.5) > 2016 {
		t.Errorf("traced deliveries: n=%d p50=%v, want one of 2000ns", w.deliverTraced.count(), w.deliverTraced.quantile(0.5))
	}
	if w.unknown.Load() != 1 {
		t.Errorf("unknown versions = %d, want 1", w.unknown.Load())
	}
}

// An event due in the past is issued at once and its lateness counted;
// one due in the future is waited for.
func TestWaitUntilLateness(t *testing.T) {
	t0 := time.Now()
	if late := waitUntil(t0.Add(-5 * time.Millisecond)); late < 5*time.Millisecond || time.Since(t0) > 5*time.Millisecond {
		t.Errorf("overdue event: lateness %v after %v, want ≥ 5ms at once", late, time.Since(t0))
	}
	t0 = time.Now()
	if late := waitUntil(t0.Add(2 * time.Millisecond)); late < 0 || time.Since(t0) < 2*time.Millisecond {
		t.Errorf("future event: lateness %v after %v, want ≥ 0 after 2ms", late, time.Since(t0))
	}
}

func TestTracerArenaAndHandoff(t *testing.T) {
	var nilTr *tracer
	if s := nilTr.begin(spanEnter, 0, 0); s != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", s)
	}
	nilTr.end(-1)
	nilTr.link(-1, 3)

	tr := newTracer(3, time.Now())
	exit := tr.begin(spanExit, 1, 0)
	tr.end(exit)
	await := tr.begin(spanAwait, 2, 0)
	tr.end(await)
	tr.link(await, exit)
	op := tr.begin(spanOp, 2, 0)
	tr.end(op)
	if tr.begin(spanEnter, 3, 0) != -1 || !tr.full() {
		t.Fatal("a full arena must refuse spans")
	}
	st := aggregateSpans(tr.recorded())
	if st.handoff.count() != 1 {
		t.Fatalf("handoffs = %d, want 1", st.handoff.count())
	}
	spans := tr.recorded()
	if want := float64(spans[await].end - spans[exit].start); math.Abs(st.handoff.quantile(0.5)-want) > want/histSub+1 {
		t.Fatalf("handoff = %v, want %v", st.handoff.quantile(0.5), want)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("span file has %d lines, want a header and 3 spans", lines)
	}
}

func TestEmitReportsFailedChecks(t *testing.T) {
	r := &result{attempted: 10}
	r.add("ops_per_s", 5, "1/s", 10, "ops")
	line, correct, err := r.emit(new(bytes.Buffer), []string{"ops_per_s"})
	if err != nil || !correct || !strings.Contains(line, `"correct":true`) {
		t.Fatalf("clean run: %q %v %v", line, correct, err)
	}
	r.failf("occupancy off by %d", 1)
	if _, correct, _ := r.emit(new(bytes.Buffer), []string{"ops_per_s"}); correct {
		t.Fatal("a failed check must make the run incorrect")
	}
	if _, _, err := r.emit(new(bytes.Buffer), []string{"missing"}); err == nil {
		t.Fatal("a missing metric must be an error")
	}
}

type benchMetric struct{ Name, Unit string }

type benchJSON struct {
	Workloads []benchMetric
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json declares the workloads and metrics the command has.
func TestBenchmarkJSONNames(t *testing.T) {
	b := loadBenchmarkJSON(t)
	names := func(xs []benchMetric) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	var wl []string
	for name := range workloads {
		wl = append(wl, name)
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(b.Workloads), sorted(wl)},
		{"end_to_end", names(b.EndToEnd), sorted(endToEndNames)},
		{"per_layer", names(b.PerLayer), sorted(perLayerNames)},
	} {
		if !reflect.DeepEqual(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json has %v, the command has %v", c.what, c.json, c.got)
		}
	}
}

// A short run of every workload, untraced and traced, passes its
// correctness checks and prints exactly its declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	units := make(map[string]string)
	b := loadBenchmarkJSON(t)
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range []string{"pbuf", "pbuf-explicit", "roundrobin", "watch"} {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s%s", w, trace, code, out.String(), errOut.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%s: last line: %v", w, trace, err)
				continue
			}
			want := endToEndNames
			if trace == "1" {
				want = perLayerNames
			} else {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %+v", w, trace, res)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", w, name, m.Unit, units[name])
				}
			}
			if trace == "1" {
				checkLayerClaims(t, w, res.Metrics)
			}
		}
	}
}

// checkLayerClaims pins the per-layer facts the workloads were chosen
// for: AutoSynch never broadcasts and the explicit program does, the
// closed loops' predicates are served by generated code and watch's are
// not, and only the ring records handoffs.
func checkLayerClaims(t *testing.T, w string, m map[string]jsonMetric) {
	t.Helper()
	bcast, served, handoffs := m["core.broadcasts_per_op"].Value, m["codegen.served_frac"].Value, m["core.handoff_p50_us"].Value
	switch w {
	case "pbuf", "roundrobin":
		if bcast != 0 || served != 1 {
			t.Errorf("%s: broadcasts/op %v, served frac %v; want 0 and 1", w, bcast, served)
		}
	case "pbuf-explicit":
		if bcast <= 0 {
			t.Errorf("%s: broadcasts/op %v, want > 0", w, bcast)
		}
	case "watch":
		if served != 0 || m["watchd.deliveries_per_publish"].Value <= 0 {
			t.Errorf("%s: served frac %v, deliveries/publish %v; want 0 and > 0", w, served, m["watchd.deliveries_per_publish"].Value)
		}
	}
	if (w == "roundrobin") != (handoffs > 0) {
		t.Errorf("%s: handoff p50 %v us", w, handoffs)
	}
}
