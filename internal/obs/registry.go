package obs

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
)

// Registry is the list of series one metrics endpoint serves, rendered in
// the Prometheus text format. A series is declared exactly once, on the
// struct field that stores it:
//
//	Events atomic.Int64 `metric:"armus_serve_events_total,counter,Verifier events ingested."`
//
// The tag holds name, kind and help, in that order; the help text may
// itself contain commas. Kind is counter or gauge on an atomic.Int64, and
// histogram on a Hist — or histogram/D, which serves the bucket bounds and
// the sum divided by D (histogram/1000 serves a nanosecond Hist in µs).
// Register walks a struct once, when the endpoint is built; a scrape then
// reads the fields in place, so the storage the hot path updates is the
// only copy of a series there is.
type Registry struct {
	series []series
}

type series struct {
	name, kind, help string
	labels           string       // rendered between braces (Info only)
	value            func() int64 // counters and gauges
	hist             *Hist
	div              int64 // histogram unit divisor
}

// Register adds every metric-tagged field of the struct p points to, in
// field order. A malformed tag or an unsupported field type is a
// programming error and panics.
func (r *Registry) Register(p any) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, rest, _ := strings.Cut(tag, ",")
		kind, help, _ := strings.Cut(rest, ",")
		s := series{name: name, kind: kind, help: help, div: 1}
		switch f := v.Field(i).Addr().Interface().(type) {
		case *atomic.Int64:
			if kind != "counter" && kind != "gauge" {
				panic(fmt.Sprintf("obs: metric %s: kind %q on an atomic.Int64", name, kind))
			}
			s.value = f.Load
		case *Hist:
			kind, div, scaled := strings.Cut(kind, "/")
			if scaled {
				d, err := strconv.ParseInt(div, 10, 64)
				if err != nil || d <= 0 {
					panic(fmt.Sprintf("obs: metric %s: bad histogram divisor %q", name, div))
				}
				s.div = d
			}
			if kind != "histogram" {
				panic(fmt.Sprintf("obs: metric %s: kind %q on a Hist", name, kind))
			}
			s.kind, s.hist = kind, f
		default:
			panic(fmt.Sprintf("obs: metric %s: unsupported field type %T", name, f))
		}
		r.series = append(r.series, s)
	}
}

// Gauge adds a gauge computed by f at scrape time.
func (r *Registry) Gauge(name, help string, f func() int64) {
	r.series = append(r.series, series{name: name, kind: "gauge", help: help, value: f})
}

// Info adds a constant gauge of 1 whose labels (already formatted, e.g.
// `version="v1",go="go1.24"`) carry metadata.
func (r *Registry) Info(name, help, labels string) {
	r.series = append(r.series, series{name: name, kind: "gauge", help: help,
		labels: "{" + labels + "}", value: func() int64 { return 1 }})
}

// WriteText renders every series in registration order: one HELP and one
// TYPE line each, then the sample — or, for a histogram, every finite
// bucket cumulatively, +Inf, _sum and _count. The bucket list is fixed, so
// any two scrapes can be subtracted bucket by bucket.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range r.series {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.kind)
		if s.hist == nil {
			fmt.Fprintf(bw, "%s%s %d\n", s.name, s.labels, s.value())
			continue
		}
		h := s.hist.Snapshot()
		var cum int64
		for i := 0; i < infBucket; i++ {
			cum += h.Buckets[i]
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", s.name, scaled(BucketBound(i), s.div), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			s.name, h.Count, s.name, scaled(h.Sum, s.div), s.name, h.Count)
	}
	return bw.Flush()
}

// scaled renders v/div: an integer when div is 1, else the shortest
// decimal that round-trips (exact for integers over 1000).
func scaled(v, div int64) string {
	if div == 1 {
		return strconv.FormatInt(v, 10)
	}
	return strconv.FormatFloat(float64(v)/float64(div), 'f', -1, 64)
}
