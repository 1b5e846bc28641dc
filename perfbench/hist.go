package main

import (
	"math/bits"
	"sync/atomic"
)

// Histogram geometry: values below histSub nanoseconds get exact buckets,
// and each larger power of two is split into histSub linear sub-buckets,
// so a bucket is at most 1/64 of its value wide. Values at or above
// 2^histMaxExp ns (about 18 minutes) land in the last bucket.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// hist is a log-linear latency histogram safe for concurrent record. It
// is allocation-free on the record path, so sampling ops into it does not
// move allocs_per_op, and its quantiles interpolate inside a bucket, so
// a percentile varies continuously from run to run instead of snapping
// to bucket edges.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1 // v>>e is in [histSub, 2·histSub)
	idx := e<<histSubBits + int(v>>uint(e))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns bucket idx's lower bound and width in nanoseconds.
func histBounds(idx int) (lo, width float64) {
	if idx < 2*histSub {
		return float64(idx), 1
	}
	e := idx>>histSubBits - 1
	mant := idx - e<<histSubBits
	return float64(uint64(mant) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)].Add(1)
	h.n.Add(1)
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

func (h *hist) count() int64 { return int64(h.n.Load()) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, or 0 for an
// empty histogram. It places the fractional rank q·(n−1) among the n
// samples and assumes the samples of the bucket it falls in are spread
// evenly across the bucket.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var below float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if rank < below+c {
			lo, w := histBounds(i)
			return lo + (rank-below+0.5)/c*w
		}
		below += c
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}
