// Command perfbench is the repository's benchmark. It generates seeded
// input traces, runs one workload against armus-serve / armus-store
// processes built from the checkout (or against the verifier in process),
// checks every verdict against the in-process replay oracle, and prints
// each metric by name with its unit, sample count and spread. The last line
// of its output is one JSON object with the run's metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload gate-avoid --seed 1 --seconds 12 --trace 0
//
// With --trace 1 it instead reports the per-layer metrics: the workload is
// run untraced and traced for half the time each, and the layers the
// workload does not drive are measured by a short traced pass of the
// workload that does.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/store"
	"armus/internal/trace/replay"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	work     string
	flip     bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input generator seed")
	fs.IntVar(&o.seconds, "seconds", 12, "measured interval in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding armus-serve and armus-store")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for archives")
	fs.BoolVar(&o.flip, "flip-expected", false, "self-test: invert one expected verdict; the run must fail")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	return o, nil
}

// metric is one reported figure.
type metric struct {
	name   string
	unit   string
	value  float64
	n      int     // samples behind a percentile or rate (0: a count)
	spread float64 // within-run IQR/median over windows or repetitions
	note   string
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eJSON lists the end-to-end metrics of the JSON result. The latency
// pair is the round trip of the workload's path, printed under the
// workload's own name too (gate_rtt, checkpoint_rtt, dist_round, verdict).
var e2eJSON = []string{"events_per_s", "latency_p50_us", "latency_p90_us", "setup_s", "max_rss_mb"}

// layerJSON lists the per-layer metrics every traced run reports.
var layerJSON = []string{
	"client.dial_us.p50", "client.close_us.p50", "client.emit_ns.p50", "client.emit_ns.p99",
	"client.cpu_ns_per_event", "client.allocs_per_event", "client.reconnects",
	"net.gate_remainder_us.p50",
	"trace.encode_ns_per_event", "trace.decode_ns_per_event", "trace.bytes_per_event",
	"proto.encode_ns_per_frame", "proto.decode_ns_per_frame",
	"server.cpu_ns_per_event", "server.events_per_batch",
	"server.queue_wait_us.p50", "server.queue_wait_us.p99", "server.verify_us.p50", "server.verify_us.p99",
	"server.flush_us.p50", "server.flush_us.p99", "server.parks_per_batch",
	"deps.gate_ns.p50", "deps.gate_ns.p99", "core.scan_us.p50", "core.scan_us.p99",
	"segment.disk_bytes_per_event", "segment.dropped_batches", "segment.scan_ms", "segment.stitch_ns_per_event",
	"store.rtt_us.p50", "store.cmds_per_mutation", "store.rts_per_mutation",
	"dist.analyze_us.p50", "dist.check_us.p50",
	"dist.full_snapshots", "dist.delta_snapshots", "dist.delta_fallbacks", "dist.publish_skips",
	"bench.tracing_overhead",
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	res, err := bench(o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench: verdict divergence or failed operations; see above")
		return 1
	}
	return 0
}

// bench runs one workload and prints its report to out.
func bench(o options, out io.Writer) (*result, error) {
	for _, b := range []string{"armus-serve", "armus-store"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("%s not built (run through perfbench/run.sh): %w", b, err)
		}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	e := &env{bin: o.bin, work: o.work, workers: runtime.NumCPU(), epoch: time.Now()}
	d := time.Duration(o.seconds) * time.Second

	t0 := time.Now()
	set, err := generate(workloadGen[o.workload], o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	genDur := time.Since(t0)
	printProvenance(out, o, set, genDur)

	e.flip.Store(o.flip)

	var loops []*loopResult
	var metrics []metric
	if o.trace == 0 {
		// Half the set-up reps run before the measured loop and half after
		// it, so that their median samples the machine over the whole run.
		setup, err := e.measureSetup(o.workload, 16)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := min(time.Second, d/4)
		r, err := e.runLoop(o.workload, set, warm, d, false)
		if err != nil {
			return nil, err
		}
		more, err := e.measureSetup(o.workload, 15)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, more...)
		loops = append(loops, r)
		metrics = endToEnd(o.workload, r, setup)
		printMetrics(out, fmt.Sprintf("end-to-end metrics (rates are the median over %d windows of the interval, "+
			"percentiles are over all samples; spread is the IQR/median over windows or reps)",
			len(r.m.events.w)), metrics)
		if r.srv != nil {
			fmt.Fprintf(out, "server over the interval: %.0f events in %.0f batches, %.0f gates refused, %.0f tee batches dropped, %.0f connections dropped\n",
				r.srv["server.events"], r.srv["server.batches"], r.srv["server.gate_rejected"],
				r.srv["segment.dropped_batches"], r.srv["server.failed_conns"])
		}
	} else {
		loops, metrics, err = e.traced(o, set, d, out)
		if err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]jsonMetric{}}
	for _, l := range loops {
		res.Attempted += l.m.ops
		res.Failed += l.failures()
		for _, err := range l.m.errs {
			fmt.Fprintf(out, "FAIL %s: %v\n", l.kind, err)
		}
	}
	res.Correct = res.Failed == 0
	byName := map[string]metric{}
	for _, m := range metrics {
		byName[m.name] = m
	}
	want := e2eJSON
	if o.trace == 1 {
		want = layerJSON
	}
	for _, name := range want {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(out, "correctness: %d operations attempted, %d failed (failed_ops_ratio %.3g); verdicts %s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)),
		map[bool]string{true: "all match the in-process oracle", false: "DIVERGED"}[res.Correct])
	return res, nil
}

// printProvenance prints what the result depends on.
func printProvenance(out io.Writer, o options, set *inputSet, genDur time.Duration) {
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "provenance: commit=%s source=%s nproc=%d GOMAXPROCS=%d cpu=%q go=%s run=%ds\n",
		commit(), sourceHash(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), o.seconds)
	dead := 0
	for _, in := range set.inputs {
		if in.firstDead >= 0 {
			dead++
		}
	}
	cfg := workloadGen[o.workload]
	fmt.Fprintf(out, "inputs: sha256=%s traces=%d events=%d deadlocking=%d (sim %d) tasks=%d-%d episodes=%d; generated and checked by replay.VerifyAll(%v) in %.2fs\n",
		set.hash, len(set.inputs), set.events, dead, cfg.Sims, cfg.MinTasks, cfg.MaxTasks, cfg.Iters,
		cfg.Pipelines, genDur.Seconds())
}

// commit names the checked-out commit when the checkout is a git work
// tree; otherwise the source hash identifies the code.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceHash hashes the repository's Go sources and go.mod, skipping
// build output, so a result can be tied to the code it measured.
func sourceHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// measureSetup times the workload's set-up reps times after one untimed
// warm-up: from exec of armus-serve (armus-store) to the first successful
// round trip (a checkpoint; a store PING). For verify-inproc, where no
// process starts, it times fresh in-process engines from construction to
// the verdicts of a fixed program. It returns the times in seconds.
func (e *env) measureSetup(kind string, reps int) ([]float64, error) {
	var times []float64
	for i := 0; i <= reps; i++ {
		// Each rep starts from a collected heap, so garbage from input
		// generation or earlier reps does not land in one rep's time.
		runtime.GC()
		var dur time.Duration
		var err error
		switch kind {
		case gateAvoid, streamDetect:
			dur, err = e.setupServe(kind, i)
		case distRounds:
			dur, err = e.setupStore()
		case verifyInproc:
			dur, err = setupInproc()
		}
		if err != nil {
			return nil, err
		}
		if i > 0 {
			times = append(times, dur.Seconds())
		}
	}
	return times, nil
}

func (e *env) setupServe(kind string, i int) (time.Duration, error) {
	segDir, mode := "", core.ModeAvoid
	if kind == streamDetect {
		segDir, mode = filepath.Join(e.work, fmt.Sprintf("setup-segments-%d", i)), core.ModeDetect
		defer os.RemoveAll(segDir)
	}
	t0 := time.Now()
	p, err := startServe(e.bin, segDir)
	if err != nil {
		return 0, err
	}
	c, err := client.Dial(client.Config{Addr: p.addr, Session: fmt.Sprintf("setup-%d", i), Mode: mode})
	if err == nil {
		_, err = c.Checkpoint()
	}
	dur := time.Since(t0)
	if c != nil {
		c.Close()
	}
	if serr := p.stop(); err == nil {
		err = serr
	}
	return dur, err
}

func (e *env) setupStore() (time.Duration, error) {
	t0 := time.Now()
	p, err := startStore(e.bin)
	if err != nil {
		return 0, err
	}
	sc := store.Dial(p.addr)
	err = sc.Ping()
	dur := time.Since(t0)
	sc.Close()
	if serr := p.stop(); err == nil {
		err = serr
	}
	return dur, err
}

// setupProgram is the fixed input of the in-process set-up: a 64-task,
// two-episode SPMD program from a constant seed, so the set-up does the
// same work whatever the run's seed.
var setupProgram = spmd(rand.New(rand.NewPCG(0, 0)), 64, 2, false)

func setupInproc() (time.Duration, error) {
	t0 := time.Now()
	for _, p := range []replay.Pipeline{replay.Avoid, replay.Detect} {
		if _, err := replay.ReplayTrace(setupProgram, p, replay.Options{}); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// endToEnd derives the end-to-end metrics of a loop, named as the
// workload's users know them (gate_rtt_p99_us, report_latency_p50_us, ...);
// the p50 and p90 of the round trip carry the workload-independent JSON
// names latency_p50_us and latency_p90_us.
func endToEnd(kind string, r *loopResult, setup []float64) []metric {
	rate, rateSpread := r.m.events.rate()
	ms := []metric{{name: "events_per_s", unit: "1/s", value: rate, n: int(r.m.events.sum()), spread: rateSpread}}
	// The p99 is printed but kept out of the JSON: on a shared machine the
	// p99 of a ~40us round trip moves with other load by more than any
	// useful bound.
	lat := latencyName[kind]
	for _, q := range []struct {
		name, alias string
		p           float64
	}{{"latency_p50_us", "p50", 0.5}, {"latency_p90_us", "p90", 0.9}, {lat + "_p99_us", "", 0.99}} {
		v, n, sp := r.m.lat.quantile(q.p)
		m := metric{name: q.name, unit: "us", value: v / 1e3, n: n, spread: sp}
		if q.alias != "" {
			m.note = fmt.Sprintf("= %s_%s_us", lat, q.alias)
		}
		if !resolved(n, q.p) {
			m.note += " UNRESOLVED (fewer than 10 samples beyond it)"
		}
		ms = append(ms, m)
	}
	if kind == streamDetect {
		for _, q := range []struct {
			suffix string
			p      float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, n, sp := r.m.report.quantile(q.p)
			m := metric{name: "report_latency_" + q.suffix + "_us", unit: "us", value: v / 1e3, n: n, spread: sp,
				note: "cycle-closing block enqueued to pushed report"}
			if !resolved(n, q.p) {
				m.note = "UNRESOLVED (fewer than 10 samples beyond it)"
			}
			ms = append(ms, m)
		}
		ms = append(ms, metric{name: "archive_read_events_per_s", unit: "1/s",
			value: float64(r.archiveEvents) / r.archiveDur.Seconds(), n: int(r.archiveEvents), spread: math.NaN(),
			note: fmt.Sprintf("Scan + Select + Stitch of %d deadlocking sessions, each export checked by replay.Detect", r.archiveReplays)})
	}
	ms = append(ms,
		metric{name: "setup_s", unit: "s", value: quantile(slices.Clone(setup), 0.5), n: len(setup), spread: iqrShare(setup),
			note: setupNote[kind]},
		metric{name: "max_rss_mb", unit: "MB", value: r.rssMB, spread: math.NaN(), note: rssNote[kind]},
		metric{name: "failed_ops_ratio", unit: "ratio", value: float64(r.failures()) / float64(max(r.m.ops, 1)),
			n: int(r.m.ops), spread: math.NaN(), note: "divergences, transport errors, reconnects, dropped connections and tee batches"},
	)
	return ms
}

var setupNote = map[string]string{
	gateAvoid:    "median of reps: armus-serve exec to first checkpoint round trip",
	streamDetect: "median of reps: armus-serve -segment-dir exec to first checkpoint round trip",
	distRounds:   "median of reps: armus-store exec to first PING round trip",
	verifyInproc: "median of reps: fresh in-process engines to the verdicts of a fixed 64-task program",
}

var rssNote = map[string]string{
	gateAvoid:    "armus-serve peak RSS",
	streamDetect: "armus-serve peak RSS",
	distRounds:   "armus-store peak RSS",
	verifyInproc: "benchmark process peak RSS (the verifier runs in process)",
}

// printMetrics prints one table of metrics.
func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s:\n", title)
	fmt.Fprintf(out, "  %-30s %16s %-6s %10s %8s  %s\n", "metric", "value", "unit", "samples", "spread", "")
	for _, m := range ms {
		n, sp := "-", "-"
		if m.n > 0 {
			n = fmt.Sprint(m.n)
		}
		if !math.IsNaN(m.spread) && m.spread != 0 {
			sp = fmt.Sprintf("%.3f", m.spread)
		}
		fmt.Fprintf(out, "  %-30s %16.4f %-6s %10s %8s  %s\n", m.name, m.value, m.unit, n, sp, m.note)
	}
}
