package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram geometry: log-linear. Values below 16 get one bucket each;
// from 16 on, every power-of-two range [2^e, 2^(e+1)) splits into 8
// equal-width buckets, so a bucket's inclusive upper bound is less than
// 9/8 of any value in it (at most 12.5% high). The finite buckets end at
// 2^38-1 — about 4.6 minutes in nanoseconds, far past any latency worth
// resolving; larger values land in the +Inf bucket, where Max is exact.
const (
	subBits    = 3 // log2 of the buckets per power of two
	subBuckets = 1 << subBits
	maxShift   = 34 // the widest finite buckets are 2^maxShift wide
	// NumBuckets is the bucket count including the final +Inf bucket.
	NumBuckets = (maxShift+2)*subBuckets + 1
	infBucket  = NumBuckets - 1
)

// bucketOf maps a non-negative value to its bucket index. Below 16 the
// index is the value; above, the top four significant bits (8..15) pick
// the sub-bucket and the shift k that exposes them picks the group.
func bucketOf(v int64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - subBits - 1
	if k > maxShift {
		return infBucket
	}
	return k*subBuckets + int(v>>k)
}

// BucketBound returns the inclusive upper bound of finite bucket i
// (i < NumBuckets-1; the last bucket is +Inf).
func BucketBound(i int) int64 {
	if i < 2*subBuckets {
		return int64(i)
	}
	k := i/subBuckets - 1
	return int64(i%subBuckets+subBuckets+1)<<k - 1
}

// Hist is a fixed-bucket histogram of non-negative int64 values
// (nanoseconds for latencies) safe for many concurrent writers and
// readers: Observe is two atomic adds plus a bounded max CAS and never
// allocates, so it can sit on the ingest hot path. The zero value is
// ready to use.
type Hist struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value; negative values count as 0.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Snapshot copies the histogram's counters. The copy is not atomic across
// buckets (observations may land mid-copy), which is fine for monitoring:
// every bucket is individually monotone, and Count is the sum of the
// copied buckets, so it always equals the +Inf cumulative bucket.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Hist: a plain value that can
// be subtracted (one interval of a cumulative histogram) and merged (many
// workers' histograms into one).
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	Count   int64
	Sum     int64
	Max     int64 // since the histogram's creation (not subtractable)
}

// Sub returns the histogram of observations made after prev was taken.
// Max is carried from s unchanged: a maximum cannot be un-observed, so
// interval percentiles come from the buckets, capped by that Max.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	for i := range s.Buckets {
		s.Buckets[i] -= prev.Buckets[i]
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	return s
}

// Merge returns the histogram of the observations of both s and o.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Max = max(s.Max, o.Max)
	return s
}

// Percentile returns the p-th percentile (0..100, nearest rank) as the
// upper bound of the bucket the rank falls in, capped at Max; ranks in the
// +Inf bucket report Max. Zero when empty.
func (s HistSnapshot) Percentile(p float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := min(max(int64(p/100*float64(s.Count)+0.5), 1), s.Count)
	var seen int64
	for i := 0; i < infBucket; i++ {
		seen += s.Buckets[i]
		if seen >= rank {
			return min(BucketBound(i), s.Max)
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistSnapshot) Mean() int64 {
	if s.Count <= 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Stats condenses a nanosecond snapshot into the microsecond summary
// served by /debug/armus/sessions and printed by armus-loadgen. Bounds
// round up, so a stage that saw anything never reads 0µs.
func (s HistSnapshot) Stats() StageStats {
	return StageStats{
		Count: s.Count,
		P50Us: ceilUs(s.Percentile(50)),
		P99Us: ceilUs(s.Percentile(99)),
		MaxUs: ceilUs(s.Max),
		SumUs: s.Sum / 1000,
	}
}

func ceilUs(ns int64) int64 { return (ns + 999) / 1000 }
