package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/dist"
	"armus/internal/segment"
	"armus/internal/store"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// The workloads. Each is a loop kind plus the generator parameters of its
// seeded inputs; the program under test receives only the generated traces.
const (
	gateAvoid    = "gate-avoid"
	streamDetect = "stream-detect"
	distRounds   = "dist-rounds"
	verifyInproc = "verify-inproc"
)

var workloadNames = []string{gateAvoid, streamDetect, distRounds, verifyInproc}

var workloadGen = map[string]genConfig{
	// SPMD barrier programs of 8-16 tasks, with a few deadlocking and sim
	// programs whose closing gates the server must refuse.
	gateAvoid: {Sessions: 64, MinTasks: 8, MaxTasks: 16, Iters: 24,
		Deadlocks: 4, Sims: 4, Mode: core.ModeAvoid,
		Pipelines: []replay.Pipeline{replay.Avoid, replay.Detect}},
	// Long 16-task sessions, one in four deadlocking, so ingest rather
	// than connection set-up carries the load, and few enough sessions
	// end per second that the server seals each one's segment as its
	// lease expires.
	streamDetect: {Sessions: 4, MinTasks: 16, MaxTasks: 16, Iters: 2000,
		Deadlocks: 1, Mode: core.ModeDetect,
		Pipelines: []replay.Pipeline{replay.Avoid, replay.Detect}},
	distRounds: {Sessions: 16, MinTasks: 8, MaxTasks: 16, Iters: 24,
		Deadlocks: 2, Mode: core.ModeObserve,
		Pipelines: []replay.Pipeline{replay.Avoid, replay.Detect, replay.Dist}},
	// The same programs at about 64 tasks, where deps/graph/core dominate.
	verifyInproc: {Sessions: 16, MinTasks: 60, MaxTasks: 68, Iters: 12,
		Deadlocks: 2, Mode: core.ModeDetect,
		Pipelines: []replay.Pipeline{replay.Avoid, replay.Detect}},
}

// latencyName is the workload-specific name of the latency each loop
// samples: the round trip a user of that path waits on.
var latencyName = map[string]string{
	gateAvoid:    "gate_rtt",
	streamDetect: "checkpoint_rtt",
	distRounds:   "dist_round",
	verifyInproc: "verdict",
}

const (
	checkEvery  = 64 // stream-detect: mutations between checkpoints
	settleEvery = 64 // dist-rounds: mutations between all-site checks
	emitSample  = 16 // traced stream-detect: one emit span per this many events
)

// env is one benchmark run's shared state.
type env struct {
	bin, work string
	workers   int // generator concurrency: nproc sessions, sites or replays
	epoch     time.Time
	runs      atomic.Int64 // loops started, for unique session names
	// flip makes the next verdict comparison expect the opposite verdict:
	// the self-test's injected divergence, applied to the benchmark's
	// expectation, never to the program.
	flip atomic.Bool
}

// meter is one worker's view of a measured loop.
type meter struct {
	events, lat, report *series
	tr                  *tracer
	ops, failed         int64
	reconnects          int64
	errs                []error
}

func (e *env) newMeter(start time.Time, win time.Duration, windows int, traced bool) *meter {
	m := &meter{
		events: newSeries(start, win, windows),
		lat:    newSeries(start, win, windows),
		report: newSeries(start, win, windows),
	}
	if traced {
		m.tr = newTracer(e.epoch)
	}
	return m
}

func (m *meter) fail(err error) {
	m.failed++
	if len(m.errs) < 4 {
		m.errs = append(m.errs, err)
	}
}

func (m *meter) diverge(format string, args ...any) {
	m.fail(fmt.Errorf("divergence: "+format, args...))
}

// addCounts folds o's operation and failure counts into m.
func (m *meter) addCounts(o *meter) {
	m.ops += o.ops
	m.failed += o.failed
	m.reconnects += o.reconnects
	m.errs = append(m.errs, o.errs[:min(len(o.errs), max(0, 8-len(m.errs)))]...)
}

// expect returns want, inverted once if a self-test flip is pending.
func (e *env) expect(want bool) bool {
	if e.flip.CompareAndSwap(true, false) {
		return !want
	}
	return want
}

// loopResult is what one measured loop of a workload produced.
type loopResult struct {
	kind     string
	m        *meter // merged over workers
	spans    *spanStats
	rssMB    float64
	clientNs float64 // generator CPU over the measured interval
	mallocs  float64 // generator heap allocations over the measured interval
	srv      map[string]float64
	// stream-detect archive read-back
	archiveEvents  int64
	archiveDur     time.Duration
	scanDur        time.Duration
	stitchDur      time.Duration
	archiveReplays int
	// dist-rounds counts over one pass of the input set
	distCounts *distCounts
}

// failures counts the loop's failed operations: divergences, transport
// errors and reconnects on the generator side, and connections or archive
// batches the server dropped.
func (r *loopResult) failures() int64 {
	return r.m.failed + r.m.reconnects + int64(r.srv["server.failed_conns"]+r.srv["segment.dropped_batches"])
}

// session runs one input through the workload's path; w is the worker.
type sessionFn func(w int, name string, in *input, m *meter)

// drive runs fn on e.workers goroutines over the input set: first a
// warm-up, then the measured interval d. A session counts in the interval
// it started in, and in the window of the interval it finished in (the
// last window takes the sessions that finish after the interval).
// onStart and onEnd run at the interval's edges.
func (e *env) drive(kind string, set *inputSet, workers int, warm, d time.Duration, traced bool,
	fn sessionFn, onStart, onEnd func()) *loopResult {
	run := e.runs.Add(1)
	windows := max(4, int(d/time.Second))
	win := d / time.Duration(windows)
	warmEnd := time.Now().Add(warm)
	end := warmEnd.Add(d)
	meters := make([]*meter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		meters[w] = e.newMeter(warmEnd, win, windows, traced)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				m := meters[w]
				if now.Before(warmEnd) {
					// Warm-up samples are dropped; its failures still count.
					m = e.newMeter(now, warm+time.Second, 1, false)
				}
				in := set.inputs[(w+k*workers)%len(set.inputs)]
				fn(w, fmt.Sprintf("pb%d-%d-r%d-w%d-%d", os.Getpid(), e.epoch.UnixNano()%1e6, run, w, k), in, m)
				if m != meters[w] {
					meters[w].addCounts(m)
				}
			}
		}(w)
	}
	time.Sleep(time.Until(warmEnd))
	var ru0 syscall.Rusage
	var ms0 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	runtime.ReadMemStats(&ms0)
	if onStart != nil {
		onStart()
	}
	wg.Wait()
	var ru1 syscall.Rusage
	var ms1 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	if onEnd != nil {
		onEnd()
	}
	res := &loopResult{kind: kind, m: meters[0]}
	var tracers []*tracer
	for w, m := range meters {
		tracers = append(tracers, m.tr)
		if w == 0 {
			continue
		}
		res.m.events.merge(m.events)
		res.m.lat.merge(m.lat)
		res.m.report.merge(m.report)
		res.m.addCounts(m)
	}
	if traced {
		res.spans = collectSpans(tracers...)
	}
	res.clientNs = float64(tvNs(ru1.Utime) + tvNs(ru1.Stime) - tvNs(ru0.Utime) - tvNs(ru0.Stime))
	res.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	return res
}

func tvNs(tv syscall.Timeval) int64 { return tv.Sec*1e9 + int64(tv.Usec)*1e3 }

// runLoop runs one loop of kind over set — starting and stopping the
// system-under-test processes it needs — and collects its results.
func (e *env) runLoop(kind string, set *inputSet, warm, d time.Duration, traced bool) (*loopResult, error) {
	switch kind {
	case gateAvoid, streamDetect:
		return e.runServed(kind, set, warm, d, traced)
	case distRounds:
		return e.runDist(set, warm, d, traced)
	case verifyInproc:
		res := e.drive(kind, set, e.workers, warm, d, traced, e.verifySession, nil, nil)
		rss, err := procStatus(os.Getpid(), "VmHWM")
		res.rssMB = rss / 1024
		return res, err
	}
	return nil, fmt.Errorf("unknown workload %q", kind)
}

// runServed runs gate-avoid or stream-detect against a fresh armus-serve,
// taking deltas of its /metrics series and CPU time over the measured
// interval; stream-detect then reads the archive back.
func (e *env) runServed(kind string, set *inputSet, warm, d time.Duration, traced bool) (*loopResult, error) {
	segDir := ""
	if kind == streamDetect {
		segDir = filepath.Join(e.work, fmt.Sprintf("segments-%d", e.runs.Load()+1))
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(segDir)
	}
	p, err := startServe(e.bin, segDir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			p.stop()
		}
	}()
	var before, after *promSnapshot
	var cpu0, cpu1 float64
	var scrapeErr error
	pid := p.cmd.Process.Pid
	snap := func(s **promSnapshot, cpu *float64) {
		var err error
		if *s, err = scrape(p.http); err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		if *cpu, err = cpuNs(pid); err != nil && scrapeErr == nil {
			scrapeErr = err
		}
	}
	var deadlocked sync.Map // session name -> *input, stream-detect sessions that deadlock
	fn := func(w int, name string, in *input, m *meter) { e.avoidSession(p.addr, name, in, m) }
	if kind == streamDetect {
		fn = func(w int, name string, in *input, m *meter) {
			if e.detectSession(p.addr, name, in, m) {
				deadlocked.Store(name, in)
			}
		}
	}
	res := e.drive(kind, set, e.workers, warm, d, traced, fn,
		func() { snap(&before, &cpu0) }, func() { snap(&after, &cpu1) })
	if scrapeErr != nil {
		return nil, fmt.Errorf("%s metrics: %w", kind, scrapeErr)
	}
	rss, err := procStatus(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	res.rssMB = rss / 1024
	stopped = true
	if err := p.stop(); err != nil {
		return nil, err
	}
	res.srv = serverMetrics(before, after, cpu1-cpu0)
	if kind == streamDetect {
		if err := e.readArchive(segDir, &deadlocked, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serverMetrics derives the server's per-layer figures from two scrapes.
func serverMetrics(before, after *promSnapshot, cpuNs float64) map[string]float64 {
	ev := after.delta(before, "armus_serve_events_total")
	batches := after.delta(before, "armus_serve_batches_total")
	out := map[string]float64{
		"server.cpu_ns_per_event":      cpuNs / ev,
		"server.events_per_batch":      ev / batches,
		"server.parks_per_batch":       after.delta(before, "armus_serve_exec_parks_total") / batches,
		"server.events":                ev,
		"server.batches":               batches,
		"server.gate_rejected":         after.delta(before, "armus_serve_gate_rejected_total"),
		"server.failed_conns":          after.delta(before, "armus_serve_slow_disconnects_total") + after.delta(before, "armus_serve_malformed_conns_total"),
		"segment.dropped_batches":      after.delta(before, "armus_serve_segment_batches_dropped_total"),
		"segment.disk_bytes_per_event": after.delta(before, "armus_serve_segment_bytes_written_total") / after.delta(before, "armus_serve_segment_events_total"),
	}
	for _, st := range []struct{ metric, series string }{
		{"server.queue_wait_us", "armus_serve_stage_queue_wait_us"},
		{"server.verify_us", "armus_serve_stage_verify_us"},
		{"server.flush_us", "armus_serve_stage_flush_us"},
	} {
		for _, q := range []struct {
			suffix string
			p      float64
		}{{".p50", 0.5}, {".p99", 0.99}} {
			v, n := after.histQuantile(before, st.series, q.p)
			out[st.metric+q.suffix] = v
			out[st.metric+".n"] = n
		}
	}
	return out
}

// avoidSession replays one input through a fresh avoidance session. Every
// block waits for its gate, and each decision must match the in-process
// mirror gate (replay.AvoidEngine, the reference client.ReplayTrace
// mirrors against); the final checkpoint must match the mirror's verdict.
func (e *env) avoidSession(addr, name string, in *input, m *meter) {
	sp := m.tr.begin("client.session", -1)
	defer m.tr.end(sp)
	t0 := time.Now()
	c, err := client.Dial(client.Config{Addr: addr, Session: name, Mode: core.ModeAvoid})
	m.tr.record("client.dial", sp, t0, time.Since(t0))
	m.ops++
	if err != nil {
		m.fail(fmt.Errorf("dial %s: %w", name, err))
		return
	}
	defer func() {
		m.reconnects += c.Reconnects()
		t := time.Now()
		c.Close()
		m.tr.record("client.close", sp, t, time.Since(t))
	}()
	mirror := replay.NewAvoidEngine()
	for i := range in.tr.Events {
		ev := &in.tr.Events[i]
		var err error
		switch ev.Kind {
		case trace.KindBlock:
			t := time.Now()
			want := e.expect(mirror.Gate(ev.Status))
			m.tr.record("deps.gate", sp, t, time.Since(t))
			t = time.Now()
			err = c.Block(ev.Status)
			rtt := time.Since(t)
			m.lat.add(t, float64(rtt))
			m.tr.record("client.block", sp, t, rtt)
			m.ops++
			var ge *client.GateError
			rejected := errors.As(err, &ge)
			if rejected {
				err = nil
			}
			if err == nil && rejected != want {
				m.diverge("%s event %d: server rejected=%v, mirror gate rejected=%v", name, i, rejected, want)
				return
			}
		case trace.KindUnblock:
			err = c.Unblock(ev.Task)
			mirror.Clear(ev.Task)
		case trace.KindVerdict:
		default:
			err = c.Emit(*ev)
		}
		if err != nil {
			m.fail(fmt.Errorf("%s event %d: %w", name, i, err))
			return
		}
	}
	got, err := c.Checkpoint()
	m.ops++
	if err != nil {
		m.fail(fmt.Errorf("%s checkpoint: %w", name, err))
		return
	}
	if want := e.expect(mirror.Deadlocked()); got != want {
		m.diverge("%s final checkpoint: server says %v, mirror gate says %v", name, got, want)
		return
	}
	m.events.add(time.Now(), float64(len(in.tr.Events)))
}

// detectSession streams one input into a fresh subscribed detection
// session without waiting, closing the loop with a checkpoint every
// checkEvery mutations and at the end. Checkpoint verdicts must match the
// in-process replay.Detect expectation, and a deadlocking input must get
// its pushed report. It reports whether the input deadlocks.
func (e *env) detectSession(addr, name string, in *input, m *meter) bool {
	sp := m.tr.begin("client.session", -1)
	defer m.tr.end(sp)
	var reportAt atomic.Int64
	reported := make(chan struct{})
	t0 := time.Now()
	c, err := client.Dial(client.Config{Addr: addr, Session: name, Mode: core.ModeDetect, Subscribe: true,
		OnReport: func(client.Report) {
			if reportAt.CompareAndSwap(0, int64(time.Since(e.epoch))) {
				close(reported)
			}
		}})
	m.tr.record("client.dial", sp, t0, time.Since(t0))
	m.ops++
	if err != nil {
		m.fail(fmt.Errorf("dial %s: %w", name, err))
		return false
	}
	defer func() {
		m.reconnects += c.Reconnects()
		t := time.Now()
		c.Close()
		m.tr.record("client.close", sp, t, time.Since(t))
	}()
	checkpoint := func(mut int) bool {
		t := time.Now()
		got, err := c.Checkpoint()
		rtt := time.Since(t)
		m.lat.add(t, float64(rtt))
		m.tr.record("client.checkpoint", sp, t, rtt)
		m.ops++
		if err != nil {
			m.fail(fmt.Errorf("%s checkpoint: %w", name, err))
			return false
		}
		if want := e.expect(in.expected[mut-1]); got != want {
			m.diverge("%s verdict after mutation %d: server says %v, replay.Detect says %v", name, mut, got, want)
			return false
		}
		return true
	}
	var blockAt int64
	mut := 0
	for i := range in.tr.Events {
		ev := &in.tr.Events[i]
		var t time.Time
		timed := m.tr != nil && i%emitSample == 0
		if timed {
			t = time.Now()
		}
		var err error
		switch ev.Kind {
		case trace.KindBlock:
			if mut == in.firstDead {
				blockAt = int64(time.Since(e.epoch))
			}
			err = c.Block(ev.Status)
			mut++
		case trace.KindUnblock:
			err = c.Unblock(ev.Task)
			mut++
		case trace.KindVerdict:
			continue
		default:
			err = c.Emit(*ev)
		}
		if timed {
			m.tr.record("client.emit", sp, t, time.Since(t))
		}
		if err != nil {
			m.fail(fmt.Errorf("%s event %d: %w", name, i, err))
			return false
		}
		if ev.IsMutation() && mut%checkEvery == 0 && !checkpoint(mut) {
			return false
		}
	}
	if mut%checkEvery != 0 && !checkpoint(mut) {
		return false
	}
	if in.firstDead >= 0 {
		// The server pushes a report at the end of the batch that closed
		// the cycle, which may be after a checkpoint in the same batch was
		// answered.
		select {
		case <-reported:
		case <-time.After(5 * time.Second):
			m.diverge("%s deadlocks after mutation %d but no report was pushed", name, in.firstDead+1)
			return false
		}
		m.report.add(time.Now(), float64(reportAt.Load()-blockAt))
	}
	m.events.add(time.Now(), float64(len(in.tr.Events)))
	return in.firstDead >= 0
}

// readArchive reads the drained server's archive back: one segment.Scan,
// then for every deadlocking session a Select and a Stitch into a trace
// that must replay through replay.Detect to the expected verdicts.
func (e *env) readArchive(dir string, deadlocked *sync.Map, res *loopResult) error {
	t0 := time.Now()
	refs, err := segment.Scan(dir, false, nil)
	res.scanDur = time.Since(t0)
	if err != nil {
		return fmt.Errorf("archive scan: %w", err)
	}
	var buf, key bytes.Buffer
	replayed := map[string][]bool{} // encoded events -> replay.Detect verdicts
	var rerr error
	deadlocked.Range(func(k, v any) bool {
		name, in := k.(string), v.(*input)
		if len(segment.Select(refs, segment.Filter{Session: name})) == 0 {
			res.m.diverge("archive has no sealed segment for deadlocking session %s", name)
			return true
		}
		buf.Reset()
		t := time.Now()
		n, _, err := segment.Stitch(&buf, dir, name, nil)
		res.stitchDur += time.Since(t)
		if err != nil {
			rerr = fmt.Errorf("archive stitch %s: %w", name, err)
			return false
		}
		res.archiveEvents += n
		exported, err := trace.Decode(buf.Bytes())
		if err != nil {
			rerr = fmt.Errorf("archive export %s: %w", name, err)
			return false
		}
		// Sessions replayed from the same input export the same events
		// under different labels; replay is deterministic, so each distinct
		// event sequence is replayed once and its verdicts reused.
		key.Reset()
		if err := trace.Encode(&key, &trace.Trace{Mode: exported.Mode, Events: exported.Events}); err != nil {
			rerr = fmt.Errorf("archive export %s: %w", name, err)
			return false
		}
		verdicts, ok := replayed[key.String()]
		if !ok {
			r, err := replay.ReplayTrace(exported, replay.Detect, replay.Options{})
			if err != nil {
				res.m.diverge("archived session %s fails replay: %v", name, err)
				return true
			}
			verdicts = r.Verdicts
			replayed[key.String()] = verdicts
		}
		res.archiveReplays++
		want := slices.Clone(in.expected)
		want[len(want)-1] = e.expect(want[len(want)-1])
		if !slices.Equal(verdicts, want) {
			res.m.diverge("archived session %s replays to different verdicts than its input", name)
		}
		return true
	})
	res.archiveDur = res.scanDur + res.stitchDur
	return rerr
}

// distCounts are the store and site counters of one pass over the input
// set, which repeat exactly on fixed inputs.
type distCounts struct {
	done                                 map[*input]bool
	mutations, cmds, rts                 int64
	full, delta, fallbacks, publishSkips int64
}

func (dc *distCounts) add(in *input, mutations int64, sites []*dist.Site) {
	if dc.done[in] {
		return
	}
	dc.done[in] = true
	dc.mutations += mutations
	for _, s := range sites {
		st := s.StoreStats()
		dc.rts += st.RoundTrips
		for _, n := range st.Commands {
			dc.cmds += n
		}
		ss := s.Stats()
		dc.full += ss.FullSnapshots
		dc.delta += ss.DeltaSnapshots
		dc.fallbacks += ss.DeltaFallbacks
		dc.publishSkips += ss.PublishSkips
	}
}

// runDist runs dist-rounds against a fresh armus-store. The generator
// drives e.workers observe-mode sites one input at a time; inputs that
// the measured interval did not reach are completed afterwards, untimed,
// so the store counts cover exactly one pass of the input set.
func (e *env) runDist(set *inputSet, warm, d time.Duration, traced bool) (*loopResult, error) {
	p, err := startStore(e.bin)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	dc := &distCounts{done: map[*input]bool{}}
	// One replay at a time: its e.workers sites are the generator's
	// connections.
	res := e.drive(distRounds, set, 1, warm, d, traced,
		func(w int, name string, in *input, m *meter) { e.distSession(p.addr, in, m, dc) }, nil, nil)
	rest := e.newMeter(time.Now(), time.Second, 1, false)
	for _, in := range set.inputs {
		if !dc.done[in] {
			e.distSession(p.addr, in, rest, dc)
		}
	}
	res.m.addCounts(rest)
	res.distCounts = dc
	rss, err := procStatus(p.cmd.Process.Pid, "VmHWM")
	res.rssMB = rss / 1024
	return res, err
}

// distSession replays one input through e.workers fresh observe-mode sites
// with the schedule of the replay package's dist engine: each mutation is
// dealt to its owner site (task ID modulo sites), which answers the verdict
// with one pipelined RoundOnce when a peer published since its last fetch,
// or AnalyzeCached otherwise. Verdicts must match replay.Detect, and at
// settle points (verdict transitions, every settleEvery mutations, end)
// every site's CheckOnce must reach the expected verdict.
func (e *env) distSession(addr string, in *input, m *meter, dc *distCounts) {
	sp := m.tr.begin("dist.session", -1)
	defer m.tr.end(sp)
	n := e.workers
	sites := make([]*dist.Site, n)
	for i := range sites {
		sites[i] = dist.NewSite(i+1, addr)
	}
	closeSites := func() {
		for _, s := range sites {
			s.Close()
		}
	}
	tick := 0
	pubAt, fetchAt := make([]int, n), make([]int, n)
	pending := make([]bool, n)
	publish := func(i int) error {
		t := time.Now()
		err := sites[i].PublishOnce()
		m.tr.record("dist.publish", sp, t, time.Since(t))
		m.ops++
		tick++
		pubAt[i], pending[i] = tick, false
		return err
	}
	settle := func(mut int, want bool) error {
		for i := range sites {
			if pending[i] {
				if err := publish(i); err != nil {
					return err
				}
			}
		}
		for i, s := range sites {
			t := time.Now()
			rep, err := s.CheckOnce()
			m.tr.record("dist.check", sp, t, time.Since(t))
			m.ops++
			if err != nil {
				return err
			}
			tick++
			fetchAt[i] = tick
			if got := rep != nil; got != e.expect(want) {
				m.diverge("%s settle after mutation %d: site %d says %v, replay.Detect says %v",
					in.tr.Label, mut, s.ID(), got, want)
			}
		}
		return nil
	}
	mut, since, last := 0, 0, false
	var err error
	for i := range in.tr.Events {
		ev := &in.tr.Events[i]
		if !ev.IsMutation() {
			continue
		}
		var j int
		if ev.Kind == trace.KindBlock {
			j = int(uint64(ev.Status.Task) % uint64(n))
			sites[j].Verifier().State().SetBlocked(ev.Status)
		} else {
			j = int(uint64(ev.Task) % uint64(n))
			sites[j].Verifier().State().Clear(ev.Task)
		}
		pending[j] = true
		need := false
		for k := range sites {
			if k != j && (pending[k] || pubAt[k] > fetchAt[j]) {
				need = true
			}
		}
		var rep *core.DeadlockError
		if need {
			for k := range sites {
				if k != j && pending[k] {
					if err = publish(k); err != nil {
						break
					}
				}
			}
			if err != nil {
				break
			}
			t := time.Now()
			rep, err = sites[j].RoundOnce()
			d := time.Since(t)
			m.lat.add(t, float64(d))
			m.tr.record("dist.round", sp, t, d)
			m.ops++
			tick++
			pubAt[j], fetchAt[j], pending[j] = tick, tick, false
		} else {
			t := time.Now()
			rep, err = sites[j].AnalyzeCached()
			m.tr.record("dist.analyze", sp, t, time.Since(t))
		}
		if err != nil {
			break
		}
		want := in.expected[mut]
		mut++
		if got := rep != nil; got != e.expect(want) {
			m.diverge("%s mutation %d: owner site %d says %v, replay.Detect says %v",
				in.tr.Label, mut, sites[j].ID(), got, want)
			closeSites()
			return
		}
		since++
		if want != last || since >= settleEvery {
			if err = settle(mut, want); err != nil {
				break
			}
			since = 0
		}
		last = want
	}
	if err == nil {
		err = settle(mut, last)
	}
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", in.tr.Label, err))
		closeSites()
		return
	}
	dc.add(in, int64(mut), sites)
	closeSites()
	if m.tr != nil {
		// The store's own round trip, on a connection of its own while the
		// sites are closed (the generator never holds more than e.workers).
		sc := store.Dial(addr)
		for k := 0; k < 8; k++ {
			t := time.Now()
			if err := sc.Ping(); err != nil {
				m.fail(fmt.Errorf("store ping: %w", err))
				break
			}
			m.tr.record("store.ping", sp, t, time.Since(t))
		}
		sc.Close()
	}
	m.events.add(time.Now(), float64(len(in.tr.Events)))
}

// verifySession replays one input through replay.Avoid and replay.Detect
// in process; the two per-mutation verdict sequences must be equal. A
// timing source feeds each pipeline, so the time from handing a mutation
// to the pipeline to its next read is that mutation's apply-and-verdict
// time; the latency sample of mutation i is its avoid plus detect time.
func (e *env) verifySession(w int, name string, in *input, m *meter) {
	sp := m.tr.begin("replay.session", -1)
	defer m.tr.end(sp)
	var results [2]*replay.Result
	var costs [2][]time.Duration
	for i, p := range []replay.Pipeline{replay.Avoid, replay.Detect} {
		src := &timedSource{events: in.tr.Events, costs: make([]time.Duration, 0, in.mutations)}
		t := time.Now()
		r, err := replay.Replay(src, p, replay.Options{})
		m.tr.record("replay."+p.String(), sp, t, time.Since(t))
		if err != nil {
			m.fail(fmt.Errorf("%s: %w", in.tr.Label, err))
			return
		}
		results[i], costs[i] = r, src.costs
	}
	m.ops++
	now := time.Now()
	for i := range costs[0] {
		m.lat.add(now, float64(costs[0][i]+costs[1][i]))
	}
	got := slices.Clone(results[0].Verdicts)
	if len(got) > 0 {
		got[0] = e.expect(got[0])
	}
	if !slices.Equal(got, results[1].Verdicts) {
		m.diverge("%s: avoid and detect verdict sequences differ", in.tr.Label)
		return
	}
	m.events.add(now, float64(len(in.tr.Events)))
}

// timedSource is a replay.Source over an event slice that records, for
// every mutation it hands out, the time until the pipeline asks for the
// next event.
type timedSource struct {
	events  []trace.Event
	i       int
	handed  time.Time // when the pending mutation was handed out
	pending bool
	costs   []time.Duration
}

func (s *timedSource) Next() (trace.Event, error) {
	now := time.Now()
	if s.pending {
		s.costs = append(s.costs, now.Sub(s.handed))
		s.pending = false
	}
	if s.i >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	ev := s.events[s.i]
	s.i++
	if ev.IsMutation() {
		s.handed, s.pending = time.Now(), true
	}
	return ev, nil
}
