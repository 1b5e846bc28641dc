package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro"
)

// A run is several sub-runs, each on a freshly built instance of the
// workload. On a shared VM a closed loop's throughput and latency fall
// into speed levels up to a third apart that last from a second to
// minutes, while the monitor's counters stay the same, so a run averages
// the figures of many short-lived instances rather than reporting those
// of a few. A watch sub-run fills a daemon with 10,000 sessions and has
// a steady throughput, so fewer of them do.
const (
	closedSubRuns = 40
	watchSubRuns  = 5
	traceCapacity = 1 << 20 // spans kept by a traced run
)

// resources is the process's memory and CPU accounting at one moment.
type resources struct {
	mem runtime.MemStats
	cpu time.Duration // user plus system CPU time of the whole process
}

func readResources() resources {
	var r resources
	runtime.ReadMemStats(&r.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

// resourceDeltas are the resource deltas over a measured phase.
type resourceDeltas struct {
	mallocs, bytes, numGC uint64
	cpu                   time.Duration
}

func resourceDelta(a, b *resources) resourceDeltas {
	return resourceDeltas{b.mem.Mallocs - a.mem.Mallocs, b.mem.TotalAlloc - a.mem.TotalAlloc,
		uint64(b.mem.NumGC - a.mem.NumGC), b.cpu - a.cpu}
}

// subRun is what one sub-run's untraced measured phase saw.
type subRun struct {
	secs float64
	ops  int64 // consumer takes, ring turns or deliveries
	// rates are the throughputs of the phase's windows (closed loops);
	// a watch phase has one, its whole length, since its throughput is
	// set by the schedule.
	rates []float64
	lat   *hist           // op latency samples
	core  autosynch.Stats // monitor counter deltas
	used  resourceDeltas

	// watch only
	publishes  int64
	wake, late *hist // the daemon's wake-to-claim per delivery; generator lateness
}

// pool sums sub-runs into one.
func pool(subs []subRun) subRun {
	p := subRun{lat: new(hist), wake: new(hist), late: new(hist)}
	for _, s := range subs {
		p.secs += s.secs
		p.ops += s.ops
		p.lat.merge(s.lat)
		p.core = p.core.Add(s.core)
		p.used.mallocs += s.used.mallocs
		p.used.bytes += s.used.bytes
		p.used.numGC += s.used.numGC
		p.used.cpu += s.used.cpu
		p.publishes += s.publishes
		if s.wake != nil {
			p.wake.merge(s.wake)
			p.late.merge(s.late)
		}
	}
	return p
}

// endToEnd adds the end-to-end metrics. Throughput and median latency
// are interquartile means over the sub-runs of each sub-run's figure: a
// sub-run's throughput is the median over its windows, so a burst of
// load from the VM's neighbours that slows every op it overlaps moves
// it only when the burst lasts most of the sub-run, and the mean of the
// middle half of the sub-runs moves smoothly with the share of
// instances at each speed level instead of jumping between levels as a
// median would. The tail percentile pools the op samples of all
// sub-runs, and set-up time is the median of all set-ups.
func endToEnd(res *result, subs []subRun, setups []float64) {
	var rates, p50s, p99s []float64
	for _, s := range subs {
		rates = append(rates, median(s.rates))
		p50s = append(p50s, s.lat.quantile(0.5))
		p99s = append(p99s, s.lat.quantile(0.99)/1e3)
	}
	all := pool(subs)
	res.add("ops_per_s", interquartileMean(rates), "1/s", int64(len(rates)), fmt.Sprintf("sub-runs, %d ops", all.ops))
	res.add("op_p50_ns", interquartileMean(p50s), "ns", all.lat.count(), "sampled ops")
	res.add("op_p99_us", all.lat.quantile(0.99)/1e3, "us", all.lat.count(), "sampled ops")
	res.add("cpu_us_per_op", ratio(float64(all.used.cpu)/1e3, float64(all.ops)), "us", all.ops, "ops")
	res.add("allocs_per_op", ratio(float64(all.used.mallocs), float64(all.ops)), "1/op", all.ops, "ops")
	res.add("bytes_per_op", ratio(float64(all.used.bytes), float64(all.ops)), "B/op", all.ops, "ops")
	res.add("setup_s", median(setups), "s", int64(len(setups)), "set-ups")
	res.notef("per sub-run: ops/s %.0f, op p50 ns %.0f, op p99 us %.1f", rates, p50s, p99s)
	res.notef("op latency p90 %.2f us, p95 %.2f us, p99.9 %.2f us", all.lat.quantile(0.9)/1e3,
		all.lat.quantile(0.95)/1e3, all.lat.quantile(0.999)/1e3)
}

// layerExtras are the per-layer inputs that do not come from the
// untraced phases: set-up counters and the spans.
type layerExtras struct {
	gen   autosynch.Stats // monitor counters right after the last set-up
	spans *spanStats      // traced phase
	setup *spanStats      // set-up calls

	overhead  float64 // tracing's relative cost on the workload's headline metric
	overheadN int64   // samples of the traced phase behind overhead
}

// layerMetrics adds every per-layer metric. Counters come from the
// pooled untraced phases, timings from the spans. A metric whose layer
// the workload does not exercise reads 0 with n=0.
func layerMetrics(res *result, u subRun, x layerExtras) {
	sp, st := x.spans, u.core
	q := func(name string, k spanKind, quant, scale float64, unit string) {
		h := &sp.dur[k]
		if k == spanCompile || k == spanNew {
			h = &x.setup.dur[k]
		}
		res.add(name, h.quantile(quant)/scale, unit, h.count(), k.String()+" spans")
	}
	// div adds num/base with base as the metric's count.
	div := func(name string, num uint64, base int64, unit, of string) {
		res.add(name, ratio(float64(num), float64(base)), unit, base, of)
	}
	ops := u.ops
	// Busy and waiting time per op, from the op spans of the traced phase.
	tracedOps := float64(sp.dur[spanOp].count())
	perOpSeconds := func(name string, k spanKind) {
		res.add(name, ratio(float64(sp.total[k])/1e9, tracedOps), "s", int64(tracedOps), "traced ops")
	}

	q("expr.compile_us", spanCompile, 0.5, 1e3, "us")
	q("watchd.new_ms", spanNew, 0.5, 1e6, "ms")
	div("codegen.served_frac", x.gen.GenPreds, int64(x.gen.GenPreds+x.gen.GenMisses), "frac", "compiled predicates")

	q("core.enter_p50_ns", spanEnter, 0.5, 1, "ns")
	q("core.enter_p99_us", spanEnter, 0.99, 1e3, "us")
	q("core.await_p50_ns", spanAwait, 0.5, 1, "ns")
	q("core.await_p99_us", spanAwait, 0.99, 1e3, "us")
	perOpSeconds("core.await_wait_s", spanAwait)
	div("core.fastpath_frac", st.FastPath, int64(st.Awaits), "frac", "awaits")
	div("core.wakeups_per_op", st.Wakeups, ops, "1/op", "ops")
	div("core.futile_per_wakeup", st.FutileWakeups, int64(st.Wakeups), "frac", "wake-ups")

	div("core.registrations_per_op", st.Registrations, ops, "1/op", "ops")
	div("core.reuses_per_op", st.Reuses, ops, "1/op", "ops")
	div("core.evictions_per_op", st.Evictions, ops, "1/op", "ops")

	q("core.exit_p50_ns", spanExit, 0.5, 1, "ns")
	q("core.exit_p99_us", spanExit, 0.99, 1e3, "us")
	perOpSeconds("core.exit_busy_s", spanExit)
	div("core.evals_per_relay", st.PredicateEvals, int64(st.RelayCalls), "1/relay", "relay calls")
	div("core.tagchecks_per_relay", st.TagChecks, int64(st.RelayCalls), "1/relay", "relay calls")
	div("core.signals_per_op", st.Signals, ops, "1/op", "ops")
	div("core.broadcasts_per_op", st.Broadcasts, ops, "1/op", "ops")

	res.add("core.handoff_p50_us", sp.handoff.quantile(0.5)/1e3, "us", sp.handoff.count(), "handoffs")
	res.add("core.handoff_p99_us", sp.handoff.quantile(0.99)/1e3, "us", sp.handoff.count(), "handoffs")
	q("core.broadcast_p50_ns", spanBroadcast, 0.5, 1, "ns")

	// In watch an op is a delivery.
	div("core.claims_per_delivery", st.Claims+st.FutileClaims, ops, "1/op", "deliveries")
	div("core.futile_claims_frac", st.FutileClaims, int64(st.Claims+st.FutileClaims), "frac", "claims")

	q("watchd.publish_p50_ns", spanPublish, 0.5, 1, "ns")
	q("watchd.publish_p99_us", spanPublish, 0.99, 1e3, "us")
	q("watchd.register_p50_us", spanRegister, 0.5, 1e3, "us")
	q("watchd.register_p99_us", spanRegister, 0.99, 1e3, "us")
	q("watchd.cancel_p50_us", spanCancel, 0.5, 1e3, "us")
	q("watchd.renew_p50_ns", spanRenew, 0.5, 1, "ns")
	res.add("watchd.wake_to_claim_p50_us", u.wake.quantile(0.5)/1e3, "us", u.wake.count(), "deliveries")
	res.add("watchd.wake_to_claim_p99_us", u.wake.quantile(0.99)/1e3, "us", u.wake.count(), "deliveries")
	div("watchd.deliveries_per_publish", uint64(ops), u.publishes, "1/op", "publishes")

	div("runtime.allocs_per_op", u.used.mallocs, ops, "1/op", "ops")
	div("runtime.bytes_per_op", u.used.bytes, ops, "B/op", "ops")
	res.add("runtime.gc_per_kop", ratio(float64(u.used.numGC), float64(ops)/1e3), "1/kop", ops, "ops")

	res.add("bench.gen_late_p50_us", u.late.quantile(0.5)/1e3, "us", u.late.count(), "generator events")
	res.add("bench.gen_late_p99_us", u.late.quantile(0.99)/1e3, "us", u.late.count(), "generator events")
	res.add("bench.trace_overhead_frac", x.overhead, "frac", x.overheadN, "traced samples")

	// Self time of the op spans: what is left of an op (or put) once the
	// public calls inside it are taken out, i.e. the benchmark's own body.
	children := sp.total[spanEnter] + sp.total[spanAwait] + sp.total[spanExit] + sp.total[spanBroadcast]
	if parents := sp.total[spanOp] + sp.total[spanPut]; parents > 0 {
		res.notef("op self time: %.1f ns per traced op (op and put spans minus the calls inside them)",
			ratio(float64(parents-children), tracedOps))
	}
}
