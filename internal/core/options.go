package core

import (
	"time"

	"repro/internal/policy"
)

// DefaultInactiveLimit is the default length bound of the inactive
// predicate list (§5.2: predicates with no waiting thread are parked for
// reuse; the oldest are dropped when the list exceeds a threshold). The
// default comfortably covers the key spaces of the paper's workloads
// (the parameterized buffer cycles through ~260 distinct globalized
// predicates); see the abl-inactive experiment for the sensitivity.
const DefaultInactiveLimit = 512

type config struct {
	tagging       bool
	profile       bool
	generated     bool
	inactiveLimit int
	dnfLimit      int
	policy        policy.Policy // wake policy; nil keeps the first-found relay pick
	starveNs      int64         // starvation threshold; 0 disables Starved accounting
}

func defaultConfig() config {
	return config{
		tagging:       true,
		generated:     true,
		inactiveLimit: DefaultInactiveLimit,
		dnfLimit:      0, // 0 → dnf.DefaultMaxConjunctions
	}
}

// Option configures a Monitor at construction.
type Option func(*config)

// WithoutTagging disables predicate tagging: the relay search scans every
// registered predicate linearly. This is the AutoSynch-T mechanism of the
// paper's evaluation, kept as a first-class option because it doubles as
// the ablation baseline for tagging.
func WithoutTagging() Option {
	return func(c *config) { c.tagging = false }
}

// WithProfiling enables the nanosecond phase accounting used to reproduce
// Table 1 (await / lock / relaySignal / tag-manager). It adds two clock
// reads around each phase, so leave it off in throughput benchmarks.
func WithProfiling() Option {
	return func(c *config) { c.profile = true }
}

// WithoutGenerated disables generated-evaluator dispatch: Compile keeps
// the closure-compiled evaluators even when a matching registration
// exists (see RegisterGenerated). This is the ablation baseline for the
// codegen experiments, and the escape hatch if a stale generated file is
// ever suspect.
func WithoutGenerated() Option {
	return func(c *config) { c.generated = false }
}

// WithInactiveLimit bounds the inactive predicate list. Zero disables
// caching entirely (every deactivated predicate is discarded).
func WithInactiveLimit(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.inactiveLimit = n
		}
	}
}

// WithDNFLimit bounds the DNF conversion blow-up per predicate.
func WithDNFLimit(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.dnfLimit = n
		}
	}
}

// WithPolicy selects the monitor's wake policy (policy.FIFO, policy.LIFO,
// policy.Priority, or a custom total order): whenever the relay rule has
// several eligible waiters, the policy decides which one wakes. Without a
// policy the runtime keeps the paper's behavior: the first eligible
// waiter the (tag-pruned) scan visits, which is cheapest but unspecified.
// On an Explicit condition the policy ranks armed handles only — Signal
// notifies the policy's best handle — while goroutines parked in
// Cond.Await wake in sync.Cond order.
//
// A policy-governed relay scan is exhaustive across entries (tag pruning
// can find *a* true waiter early, but the policy must compare *all* of
// them), so expect the relay cost of AutoSynch-T plus a comparison per
// candidate. Per-predicate overrides (Predicate.UsePolicy) refine the
// pick within that predicate's waiters only. For Baseline the policy has
// no blocking-wait effect — its broadcast discipline wakes everyone and
// the lock queue arbitrates — but the wait-time accounting (Starved,
// MaxWaitNs) still applies.
func WithPolicy(p policy.Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithStarvationThreshold sets the wait duration past which a completed
// wait counts into Stats.Starved, making starvation a counted quantity
// instead of an anecdote. Zero (the default) disables the counter;
// MaxWaitNs is tracked regardless.
func WithStarvationThreshold(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.starveNs = int64(d)
		}
	}
}
