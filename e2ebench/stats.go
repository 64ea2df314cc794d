package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// latHist is a log-linear latency histogram in nanoseconds: exact
// below 256 ns, then 256 sub-buckets per power of two (under 0.4%
// relative width). Quantiles interpolate inside a bucket, so they are
// continuous rather than snapped to bucket edges. A fixed-size
// histogram keeps a 10-million-call embedded run's latencies in 70 KiB.
type latHist struct {
	counts [256 * 40]uint64
	n      uint64
	sumNs  float64
}

const latSub = 256

func latBucket(ns int64) (idx int, lo, width float64) {
	if ns < latSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns), float64(ns), 1
	}
	e := bits.Len64(uint64(ns)) - 9 // ns>>e lands in [256, 512)
	m := ns >> e
	return latSub + e*latSub + int(m-latSub), float64(m << e), float64(int64(1) << e)
}

func (h *latHist) observe(d time.Duration) {
	idx, _, _ := latBucket(int64(d))
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.n++
	h.sumNs += float64(d)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// meanUs is the mean latency in microseconds; NaN when empty.
func (h *latHist) meanUs() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sumNs / float64(h.n) / 1e3
}

// quantileUs is the q-quantile in microseconds; NaN when empty.
func (h *latHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketBounds(i)
			return (lo + width*(target-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(len(h.counts) - 1)
	return (lo + width) / 1e3
}

// bucketBounds inverts latBucket.
func bucketBounds(idx int) (lo, width float64) {
	if idx < latSub {
		return float64(idx), 1
	}
	e := (idx - latSub) / latSub
	m := int64(idx-latSub-e*latSub) + latSub
	return float64(m << e), float64(int64(1) << e)
}

// median of a non-empty sample (it is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
