package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lastBound is the largest value a finite bucket holds.
var lastBound = BucketBound(infBucket - 1)

// checkBound asserts that v's bucket reports an upper bound at least v and
// at most 12.5% above it (values past the finite range land in +Inf).
func checkBound(t *testing.T, v int64) {
	t.Helper()
	i := bucketOf(v)
	if v > lastBound {
		if i != infBucket {
			t.Fatalf("bucketOf(%d) = %d, want the +Inf bucket %d", v, i, infBucket)
		}
		return
	}
	if b := BucketBound(i); b < v || 8*b > 9*v {
		t.Fatalf("value %d: bucket %d bound %d, want within [v, 1.125v]", v, i, b)
	}
}

func TestHistBucketBounds(t *testing.T) {
	if lastBound < 1<<37 {
		t.Fatalf("finite range ends at %d ns, want at least 2^37", lastBound)
	}
	// Every boundary: a bound is in its own bucket, the next value in the
	// next bucket, and both sides of it satisfy the error bound.
	for i := 0; i < infBucket; i++ {
		b := BucketBound(i)
		if got := bucketOf(b); got != i {
			t.Fatalf("bucketOf(BucketBound(%d)=%d) = %d", i, b, got)
		}
		if got := bucketOf(b + 1); got != i+1 {
			t.Fatalf("bucketOf(%d) = %d, want %d", b+1, got, i+1)
		}
		checkBound(t, b)
		checkBound(t, b+1)
	}
	// Random values from 0 to ten minutes, log-uniform so that every
	// magnitude is exercised.
	r := rand.New(rand.NewSource(1))
	tenMin := int64(10 * time.Minute)
	for n := 0; n < 200_000; n++ {
		checkBound(t, r.Int63n(1+tenMin>>r.Intn(40)))
	}
}

func TestHistPercentile(t *testing.T) {
	var h Hist
	// 90 fast, 9 medium, 1 slow observation.
	for i := 0; i < 90; i++ {
		h.Observe(500)
	}
	for i := 0; i < 9; i++ {
		h.Observe(100_000)
	}
	h.Observe(5_000_000)
	s := h.Snapshot()
	wantSum := int64(90*500 + 9*100_000 + 5_000_000)
	if s.Count != 100 || s.Sum != wantSum || s.Max != 5_000_000 || s.Mean() != wantSum/100 {
		t.Fatalf("count %d sum %d max %d mean %d", s.Count, s.Sum, s.Max, s.Mean())
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{50, BucketBound(bucketOf(500))},
		{95, BucketBound(bucketOf(100_000))},
		{100, 5_000_000}, // the max caps its own bucket's bound
	} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if st := s.Stats(); st.P50Us != 1 || st.MaxUs != 5000 || st.Count != 100 {
		t.Fatalf("stats = %+v (sub-µs p50 must round up to 1)", st)
	}
	if (HistSnapshot{}).Percentile(50) != 0 {
		t.Fatal("empty histogram percentile is not 0")
	}
}

func TestHistPercentileInfBucketReportsMax(t *testing.T) {
	var h Hist
	h.Observe(int64(5 * time.Minute))
	h.Observe(int64(10 * time.Minute)) // both beyond every finite bound
	s := h.Snapshot()
	if s.Buckets[infBucket] != 2 {
		t.Fatalf("+Inf bucket holds %d, want 2", s.Buckets[infBucket])
	}
	if p := s.Percentile(50); p != int64(10*time.Minute) {
		t.Fatalf("+Inf-bucket percentile = %d, want the max", p)
	}
}

func TestHistSubMerge(t *testing.T) {
	var a, b, all Hist
	r := rand.New(rand.NewSource(2))
	for n := 0; n < 1000; n++ {
		v := r.Int63n(int64(time.Second)) >> r.Intn(30)
		all.Observe(v)
		if n%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	sa, sb, sAll := a.Snapshot(), b.Snapshot(), all.Snapshot()
	if got := sa.Merge(sb); got != sAll {
		t.Fatalf("a.Merge(b) != all: count %d/%d sum %d/%d max %d/%d",
			got.Count, sAll.Count, got.Sum, sAll.Sum, got.Max, sAll.Max)
	}
	d := sAll.Sub(sa)
	d.Max = sb.Max // Sub keeps the lifetime max
	if d != sb {
		t.Fatalf("all.Sub(a) != b: count %d/%d sum %d/%d", d.Count, sb.Count, d.Sum, sb.Sum)
	}
}

// TestHistConcurrentObserve is the -race check of the atomic Observe:
// eight writers, one reader, and an exact count and sum at the end.
func TestHistConcurrentObserve(t *testing.T) {
	const writers, per = 8, 20_000
	var h Hist
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	_ = h.Snapshot() // a concurrent reader
	wg.Wait()
	s := h.Snapshot()
	const n = writers * per
	if s.Count != n || s.Sum != n*(n-1)/2 || s.Max != n-1 {
		t.Fatalf("count %d sum %d max %d, want %d %d %d", s.Count, s.Sum, s.Max, n, n*(n-1)/2, n-1)
	}
}

func TestHistObserveZeroAlloc(t *testing.T) {
	var h Hist
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { v += 977; h.Observe(v) }); n != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", n)
	}
}
