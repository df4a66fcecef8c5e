package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// sidePass is the measured length of the traced pass of a workload that
// drives a layer the run's own workload does not.
const sidePass = time.Second

// traced runs the workload untraced and traced for half the interval
// each, adds a short traced pass of every other server- or store-backed
// workload (on that workload's own inputs for the same seed) for the layers
// the run's workload does not drive, times the in-process layers on the
// run's inputs, and prints the per-layer metrics, the gate-path budget and
// the span self times.
func (e *env) traced(o options, set *inputSet, d time.Duration, out io.Writer) ([]*loopResult, []metric, error) {
	half := d / 2
	warm := min(time.Second, half/4)
	un, err := e.runLoop(o.workload, set, warm, half, false)
	if err != nil {
		return nil, nil, err
	}
	tr, err := e.runLoop(o.workload, set, warm, half, true)
	if err != nil {
		return nil, nil, err
	}
	loops := []*loopResult{un, tr}
	by := map[string]*loopResult{o.workload: tr}
	src := map[string]string{o.workload: "own loop"}
	for _, k := range []string{gateAvoid, streamDetect, distRounds} {
		if k == o.workload {
			continue
		}
		ks, err := generate(workloadGen[k], o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("generating %s inputs: %w", k, err)
		}
		r, err := e.runLoop(k, ks, sidePass/4, sidePass, true)
		if err != nil {
			return nil, nil, err
		}
		loops = append(loops, r)
		by[k] = r
		src[k] = "side pass " + k
	}
	lp, err := layerPass(set)
	if err != nil {
		return nil, nil, err
	}

	var ms []metric
	add := func(name, unit string, v float64, n int, from string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, n: n, spread: math.NaN(), note: from})
	}
	spanQ := func(r *loopResult, name string, p float64) (float64, int) {
		return r.spans.q(name, p), len(r.spans.durs[name])
	}

	av, dt, ds := by[gateAvoid], by[streamDetect], by[distRounds]
	v, n := spanQ(av, "client.dial", 0.5)
	add("client.dial_us.p50", "us", v/1e3, n, src[gateAvoid])
	v, n = spanQ(av, "client.close", 0.5)
	add("client.close_us.p50", "us", v/1e3, n, src[gateAvoid])
	for _, q := range []struct {
		s string
		p float64
	}{{"p50", 0.5}, {"p99", 0.99}} {
		v, n = spanQ(dt, "client.emit", q.p)
		add("client.emit_ns."+q.s, "ns", v, n, src[streamDetect]+fmt.Sprintf(", 1 in %d emits", emitSample))
	}
	dtEvents := dt.m.events.sum()
	add("client.cpu_ns_per_event", "ns", dt.clientNs/dtEvents, 0, src[streamDetect]+", generator process CPU")
	add("client.allocs_per_event", "count", dt.mallocs/dtEvents, 0, src[streamDetect]+", generator heap allocations")
	var reconnects int64
	for _, l := range loops {
		reconnects += l.m.reconnects
	}
	add("client.reconnects", "count", float64(reconnects), 0, "all loops")

	for _, k := range []string{"trace.encode_ns_per_event", "trace.decode_ns_per_event", "proto.encode_ns_per_frame", "proto.decode_ns_per_frame"} {
		add(k, "ns", lp[k], 0, "layer pass on the run's inputs")
	}
	add("trace.bytes_per_event", "bytes", lp["trace.bytes_per_event"], 0, "layer pass on the run's inputs")

	srv, srvFrom := av, src[gateAvoid]
	if o.workload == streamDetect {
		srv, srvFrom = dt, src[streamDetect]
	}
	srvFrom += ", /metrics and /proc deltas"
	for _, k := range []string{"server.cpu_ns_per_event", "server.events_per_batch", "server.parks_per_batch"} {
		unit := "count"
		if k == "server.cpu_ns_per_event" {
			unit = "ns"
		}
		add(k, unit, srv.srv[k], 0, srvFrom)
	}
	for _, st := range []string{"server.queue_wait_us", "server.verify_us", "server.flush_us"} {
		for _, q := range []string{".p50", ".p99"} {
			add(st+q, "us", srv.srv[st+q], int(srv.srv[st+".n"]), srvFrom+", batch-weighted, interpolated in power-of-two buckets")
		}
	}

	add("deps.gate_ns.p50", "ns", lp["deps.gate_ns.p50"], int(lp["deps.gate.n"]), "layer pass: replay.AvoidEngine.Gate")
	add("deps.gate_ns.p99", "ns", lp["deps.gate_ns.p99"], int(lp["deps.gate.n"]), "layer pass: replay.AvoidEngine.Gate")
	add("core.scan_us.p50", "us", lp["core.scan_us.p50"], int(lp["core.scan.n"]), "layer pass: core.Verifier.CheckNow")
	add("core.scan_us.p99", "us", lp["core.scan_us.p99"], int(lp["core.scan.n"]), "layer pass: core.Verifier.CheckNow")

	add("segment.disk_bytes_per_event", "bytes", dt.srv["segment.disk_bytes_per_event"], 0, src[streamDetect])
	add("segment.dropped_batches", "count", dt.srv["segment.dropped_batches"], 0, src[streamDetect])
	add("segment.scan_ms", "ms", float64(dt.scanDur)/1e6, 0, src[streamDetect]+", one segment.Scan")
	add("segment.stitch_ns_per_event", "ns", float64(dt.stitchDur)/float64(dt.archiveEvents), int(dt.archiveEvents), src[streamDetect])

	dc := ds.distCounts
	v, n = spanQ(ds, "store.ping", 0.5)
	add("store.rtt_us.p50", "us", v/1e3, n, src[distRounds]+", PING on its own connection")
	mut := float64(dc.mutations)
	add("store.cmds_per_mutation", "count", float64(dc.cmds)/mut, int(dc.mutations), src[distRounds]+", one pass of the input set")
	add("store.rts_per_mutation", "count", float64(dc.rts)/mut, int(dc.mutations), src[distRounds]+", one pass of the input set")
	v, n = spanQ(ds, "dist.analyze", 0.5)
	add("dist.analyze_us.p50", "us", v/1e3, n, src[distRounds]+", Site.AnalyzeCached")
	v, n = spanQ(ds, "dist.check", 0.5)
	add("dist.check_us.p50", "us", v/1e3, n, src[distRounds]+", Site.CheckOnce")
	add("dist.full_snapshots", "count", float64(dc.full), 0, src[distRounds]+", one pass of the input set")
	add("dist.delta_snapshots", "count", float64(dc.delta), 0, src[distRounds]+", one pass of the input set")
	add("dist.delta_fallbacks", "count", float64(dc.fallbacks), 0, src[distRounds]+", one pass of the input set")
	add("dist.publish_skips", "count", float64(dc.publishSkips), 0, src[distRounds]+", one pass of the input set")

	unRate, _ := un.m.events.rate()
	trRate, _ := tr.m.events.rate()
	add("bench.tracing_overhead", "ratio", trRate/unRate, 0,
		fmt.Sprintf("traced %.0f / untraced %.0f events/s", trRate, unRate))

	gate, gateN := spanQ(av, "client.block", 0.5)
	budget := []struct {
		layer string
		us    float64
	}{
		{"client: trace encode, 1 event (layer pass)", lp["trace.encode_ns_per_event"] / 1e3},
		{"server: read-loop decode, 1 event (layer pass)", lp["trace.decode_ns_per_event"] / 1e3},
		{"server: queue wait p50 [batch-weighted]", av.srv["server.queue_wait_us.p50"]},
		{"server: verify p50 [batch-weighted]", av.srv["server.verify_us.p50"]},
		{"server: proto encode, 1 frame (layer pass)", lp["proto.encode_ns_per_frame"] / 1e3},
		{"server: flush p50 [batch-weighted]", av.srv["server.flush_us.p50"]},
		{"client: proto decode, 1 frame (layer pass)", lp["proto.decode_ns_per_frame"] / 1e3},
	}
	remainder := gate / 1e3
	for _, b := range budget {
		remainder -= b.us
	}
	ms = slices.Insert(ms, 7, metric{name: "net.gate_remainder_us.p50", unit: "us", value: remainder, n: gateN,
		spread: math.NaN(), note: "gate RTT p50 minus the layer self-times of the budget below"})

	printMetrics(out, "per-layer metrics", ms)
	fmt.Fprintf(out, "gate-path budget (%s; server stage histograms count batches, not gates):\n", src[gateAvoid])
	fmt.Fprintf(out, "  %-52s %10.3f us  (n=%d)\n", "gate round trip p50 (client.Block)", gate/1e3, gateN)
	for _, b := range budget {
		fmt.Fprintf(out, "  %-52s %10.3f us\n", b.layer, b.us)
	}
	fmt.Fprintf(out, "    %-50s %10.3f us  (inside verify; not summed)\n", "of which deps gate p50 (mirror AvoidEngine.Gate)", av.spans.q("deps.gate", 0.5)/1e3)
	fmt.Fprintf(out, "  %-52s %10.3f us\n", "net.gate_remainder_us.p50 (unexplained)", remainder)

	for _, k := range []string{o.workload, gateAvoid, streamDetect, distRounds} {
		r := by[k]
		if r == nil || r.spans == nil {
			continue
		}
		printSpans(out, k, r.spans)
		by[k] = nil // print each loop once
	}
	return loops, ms, nil
}

// printSpans prints each span name's count, median and share of the summed
// self time of its loop.
func printSpans(out io.Writer, kind string, st *spanStats) {
	var names []string
	var total float64
	for name, self := range st.self {
		names = append(names, name)
		total += self
	}
	slices.Sort(names)
	fmt.Fprintf(out, "span self times (%s):\n", kind)
	for _, name := range names {
		fmt.Fprintf(out, "  %-20s n=%-9d p50 %10.3f us  self %5.1f%%\n",
			name, len(st.durs[name]), st.q(name, 0.5)/1e3, 100*st.self[name]/total)
	}
}
