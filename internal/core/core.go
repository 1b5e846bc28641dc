// Package core implements the AutoSynch runtime: the condition manager, the
// relay-signaling rule, predicate registration with tagging, and the four
// monitor mechanisms compared in the paper's evaluation (§6.2):
//
//   - Monitor (AutoSynch): automatic signaling with globalization, relay
//     invariance, and predicate tagging — the paper's contribution.
//   - Monitor with WithoutTagging (AutoSynch-T): identical, but the search
//     for a true waiter scans every registered predicate linearly.
//   - Baseline: a single condition variable; every state change broadcasts
//     (signalAll) and each woken thread re-evaluates its own predicate.
//   - Explicit: an instrumented mutex + condition-variable monitor, the
//     java.util.concurrent analog, where the programmer signals manually.
//
// All four share the Stats instrumentation so experiments can compare
// signals, wake-ups, and futile wake-ups (the context-switch proxy of
// Fig. 15) on equal footing.
//
// Waiters are first-class: a *Wait handle (Predicate.Arm, Cond.Arm, or
// any mechanism's ArmFunc) registers with the condition manager exactly
// like a blocking wait but delivers its notification by closing a
// channel, so one goroutine can multiplex any number of armed waits with
// select. In the automatic monitor the blocking waits are thin wrappers
// over the same waiter objects — relay signaling, tag structures, and
// cancellation all operate on them; the comparison mechanisms keep their
// native condition-variable parking (that parking IS what they measure)
// and run the handle lists alongside.
//
// # Layering
//
// Every mechanism embeds host: the lock, the counters, the deadline
// wheel, the flight-recorder ring, and the wait-time accounting, so
// Enter, Stats, WaitLatency, ResetStats, and Waiting exist once. Baseline
// and Explicit additionally embed condMonitor, the condition-variable
// monitor: one wait loop parks every blocking closure and Cond wait on a
// sync.Cond and re-checks its predicate on each wake-up, and one set of
// waiter lists carries the armed handles. The two differ only in what
// releasing the lock does — Baseline broadcasts on every exit and before
// every park, Explicit leaves signaling to the program. A cond wait with
// a context or a deadline allocates one give-up record; cancellation
// (registered with context.AfterFunc, so no watcher goroutine) and expiry
// (registered on the timer wheel) both end in its fire, which marks the
// wait given up and broadcasts its condition — the other waiters re-check,
// so a signal the abandoning waiter consumed is not lost.
//
// Guarded regions are first-class too: When (on a compiled predicate, a
// closure, or an explicit condition) returns a *Guard whose Do/DoCtx/Try
// run the whole enter-waituntil-mutate-exit unit atomically with a
// panic-safe unlock, and Select waits on any number of guards across
// monitors and mechanisms — parking once on a shared delivery channel,
// claiming the first true predicate Mesa-style, and cancelling the
// losers with the usual relay repair, so no wake-up and no waiter leaks.
//
// # When to shard
//
// One Monitor is one lock and one condition manager: every entry and
// exit serializes, and the relay search on each exit considers every
// shared-expression group with a signalable waiter. Predicate tagging
// makes the search within a group O(1)-ish, but it cannot prune across
// groups — a monitor carrying N independent waiting conditions (per-key
// watchers, per-session completion waits) pays an O(N) sweep on every
// exit no matter how good the tags are. When state partitions cleanly by
// key and waiters are keyed too, use a sharded monitor (internal/shard,
// re-exported as autosynch.Sharded): S inner Monitors, each with its own
// lock, condition manager, and tag index, so both the lock traffic and
// the standing group population divide by S. Every per-shard guarantee
// of this package survives unchanged, because each shard IS a Monitor:
// relay invariance holds shard-locally, signals are relayed (never
// broadcast), and tags prune within each shard's groups.
//
// Conditions spanning shards ("total free slots across all shards ≥ n")
// cannot be a predicate of any single shard. The shard package's Counter
// gives them a home: per-shard deltas batch under the shard lock and
// publish into a small summary Monitor when they cross a threshold, and
// the aggregate bound is an ordinary compiled predicate on that summary
// — threshold-tagged, relay-signaled. Waiters escalate to the summary
// only after shard-local probing fails, and a watch protocol (precise
// publication plus a flush, ordered before the park) guarantees the
// batching never hides the update a parked aggregate waiter needs.
package core
