package main

import (
	"math"
	"math/bits"
)

// hist is a fixed-size log-bucketed latency histogram in nanoseconds.
// Values below subBuckets get a bucket each; above that every power of two
// is split into subBuckets linear buckets, so a bucket is never wider than
// 1/subBuckets of the values in it. Recording is an array increment: it
// never allocates, and memory stays the same however long the run.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
}

const (
	subBits    = 6
	subBuckets = 1 << subBits
	nBuckets   = (64 - subBits + 1) * subBuckets
)

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e lies in [subBuckets, 2*subBuckets)
	return (e+1)*subBuckets + int(v>>e) - subBuckets
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < subBuckets {
		return uint64(i), uint64(i) + 1
	}
	e := i/subBuckets - 1
	m := uint64(i%subBuckets + subBuckets)
	return m << e, (m + 1) << e
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile, placed inside its bucket by
// linear interpolation over the bucket's samples. It is within one bucket
// width of the exact sorted-sample answer. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketBounds(i)
		return float64(lo) + float64(hi-lo)*(float64(rank-cum)-0.5)/float64(c)
	}
	return 0 // unreachable: rank <= n
}
