package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the p-quantile (0..1) of vals by linear interpolation
// between closest ranks; vals is sorted in place. NaN when empty.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	slices.Sort(vals)
	pos := p * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

// iqrShare is the distance between the first and third quartiles as a
// share of the median: the spread figure reported next to every metric.
func iqrShare(vals []float64) float64 {
	if len(vals) < 2 {
		return math.NaN()
	}
	c := slices.Clone(vals)
	q1, q2, q3 := quantile(c, 0.25), quantile(c, 0.5), quantile(c, 0.75)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / q2
}

// resolved reports whether a p-quantile of n samples has at least ten
// samples beyond it; an unresolved tail percentile is not reported as a
// number.
func resolved(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// series collects timed samples into fixed windows of the measured
// interval, so every figure can be given with its within-run spread: the
// IQR over the per-window values, as a share of their median.
type series struct {
	start time.Time
	win   time.Duration
	w     [][]float64 // per-window samples
}

func newSeries(start time.Time, win time.Duration, windows int) *series {
	return &series{start: start, win: win, w: make([][]float64, windows)}
}

// add records v as observed at time at; samples after the last window
// land in it.
func (s *series) add(at time.Time, v float64) {
	i := int(at.Sub(s.start) / s.win)
	i = max(0, min(i, len(s.w)-1))
	s.w[i] = append(s.w[i], v)
}

// merge folds o's windows into s.
func (s *series) merge(o *series) {
	for i := range o.w {
		s.w[i] = append(s.w[i], o.w[i]...)
	}
}

func (s *series) all() []float64 {
	var out []float64
	for _, w := range s.w {
		out = append(out, w...)
	}
	return out
}

// quantile returns the p-quantile over all samples of the interval, the
// sample count behind it, and its spread: the IQR of the per-window
// quantiles as a share of their median.
func (s *series) quantile(p float64) (v float64, n int, spread float64) {
	var per []float64
	for _, w := range s.w {
		n += len(w)
		if len(w) > 0 {
			per = append(per, quantile(slices.Clone(w), p))
		}
	}
	return quantile(s.all(), p), n, iqrShare(per)
}

// sum returns the sum of all samples.
func (s *series) sum() float64 {
	var t float64
	for _, w := range s.w {
		for _, x := range w {
			t += x
		}
	}
	return t
}

// rate returns the median over windows of the summed samples per second,
// and the spread of the per-window rates.
func (s *series) rate() (v float64, spread float64) {
	var per []float64
	for _, w := range s.w {
		var sum float64
		for _, x := range w {
			sum += x
		}
		per = append(per, sum/s.win.Seconds())
	}
	return quantile(slices.Clone(per), 0.5), iqrShare(per)
}

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module under test. Spans of one session share the
// session span as parent.
type span struct {
	name       string
	parent     int32 // index of the parent span in the same tracer, -1 for none
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps one worker's spans in memory. A nil *tracer records
// nothing, so the untraced run pays one pointer test per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// record adds a closed span timed by the caller.
func (t *tracer) record(name string, parent int32, start time.Time, d time.Duration) {
	if t != nil {
		s := int64(start.Sub(t.epoch))
		t.spans = append(t.spans, span{name: name, parent: parent, start: s, end: s + int64(d)})
	}
}

// spanStats aggregates spans by name over several tracers: every duration
// and the summed self time (duration minus the part covered by children).
type spanStats struct {
	durs map[string][]float64 // ns
	self map[string]float64   // ns
}

func collectSpans(ts ...*tracer) *spanStats {
	st := &spanStats{durs: map[string][]float64{}, self: map[string]float64{}}
	for _, t := range ts {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := float64(s.end - s.start)
			st.durs[s.name] = append(st.durs[s.name], d)
			st.self[s.name] += d - float64(child[i])
		}
	}
	return st
}

// q returns the p-quantile of the named span durations in ns.
func (st *spanStats) q(name string, p float64) float64 {
	return quantile(slices.Clone(st.durs[name]), p)
}
