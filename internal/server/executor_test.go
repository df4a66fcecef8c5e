package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"armus/internal/client"
	"armus/internal/clock"
	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
	"armus/internal/server/proto"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// TestExecutorPathZeroAlloc guards the ingest hot path: wire decode
// (NextInto), submit — MPSC push, the executor role taken and drained
// inline (gate/mutate/checkpoint, coalesced response encode) — and the
// read loop's non-blocking write of its own responses to a real loopback
// socket allocate nothing per batch once warm, in both session modes.
func TestExecutorPathZeroAlloc(t *testing.T) {
	const (
		tasks          = 64
		eventsPerBatch = tasks + 1 + tasks // blocks, checkpoint, unblocks
		batches        = 60                // > warmups + AllocsPerRun's 51 calls
	)
	// One steady round per batch: 64 tasks block (each arrived at its
	// phaser, so the gate admits without refusing), one checkpoint, then
	// everyone unblocks. Deadlock-free, so only the hot path runs.
	var round []trace.Event
	for i := 1; i <= tasks; i++ {
		q := int64(i%8 + 1)
		round = append(round, trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(i),
			Status: status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})})
	}
	round = append(round, trace.Event{Kind: trace.KindVerdict, Verdict: trace.VerdictReported})
	for i := 1; i <= tasks; i++ {
		round = append(round, trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(i)})
	}

	for _, mode := range []core.Mode{core.ModeAvoid, core.ModeDetect} {
		t.Run(mode.String(), func(t *testing.T) {
			// Pre-encode the wire stream the decode half will consume.
			var wire bytes.Buffer
			tw, err := trace.NewWriter(&wire, "alloc", uint8(mode))
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < batches; b++ {
				for i := range round {
					if err := tw.WriteEvent(round[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			tr, err := trace.NewReader(bytes.NewReader(wire.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
			ss := newSession(srv, "alloc", mode, nil)
			defer ss.closeEngine()
			nc, peer := tcpPair(t)
			go func() {
				buf := make([]byte, 64<<10)
				for {
					if _, err := peer.Read(buf); err != nil {
						return
					}
				}
			}()
			c := newConn(srv, nc)
			if c.raw == nil {
				t.Fatal("TCP connection exposes no file descriptor")
			}
			c.sess = ss
			c.free = make(chan *batch, 1)
			c.free <- &batch{c: c, events: make([]trace.Event, eventsPerBatch)}

			run := func() {
				// The read loop's steps: decode one batch, stamp and submit
				// it (this goroutine takes the free role, processes the batch
				// and writes its responses to the socket).
				b := <-c.free
				b.n = 0
				for b.n < len(b.events) {
					if err := tr.NextInto(&b.events[b.n]); err != nil {
						t.Fatalf("decode: %v", err)
					}
					b.n++
				}
				b.decNs = obs.Nanotime()
				c.pushed++
				ss.submit(b)
			}
			run()
			run() // warm the pools, maps, scratch and both buffers
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Fatalf("executor ingest path allocates %.1f allocs per batch, want 0", n)
			}
			if c.applied.Load() != c.pushed {
				t.Fatalf("applied %d of %d batches", c.applied.Load(), c.pushed)
			}
			if got := srv.m.StageFlush.Snapshot().Count; got == 0 {
				t.Fatal("no inline flush observed")
			}
		})
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close()
		peer.Close()
	})
	return nc, peer
}

// TestExecutorDrainMidQueue (chaos): batches pushed while another
// goroutine holds the executor role are left to it — their producers
// return at once — and the holder applies every one of them, in order,
// before it releases the role; none may be stranded in the queue. The
// backlog is exactly one combining pass, so the holder's read loop serves
// all of it itself (TestCombiningPassBounded covers a longer one).
func TestExecutorDrainMidQueue(t *testing.T) {
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
	ss := newSession(srv, "drain", core.ModeDetect, nil)
	defer ss.closeEngine()
	c := newConn(srv, nil)
	holder := newConn(srv, nil)
	// Stand in for a read loop caught mid-drain: the role is taken.
	if !ss.execState.CompareAndSwap(execIdle, execRunning) {
		t.Fatal("fresh session's role not free")
	}
	const batches = combineLimit
	for i := 0; i < batches; i++ {
		ss.submit(&batch{c: c, n: 1,
			events: []trace.Event{{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}}})
	}
	if got := c.applied.Load(); got != 0 {
		t.Fatalf("%d batches applied while another goroutine held the role", got)
	}
	if got := ss.q.depth.Load(); got != batches {
		t.Fatalf("queue depth = %d, want %d", got, batches)
	}
	// The holder releases the role; its next submit takes it again and
	// drains everything queued.
	ss.execState.Store(execIdle)
	ss.submit(&batch{c: holder, n: 1,
		events: []trace.Event{{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}}})
	if got := c.applied.Load(); got != batches {
		t.Fatalf("role released with %d of %d batches applied", got, batches)
	}
	if ss.q.depth.Load() != 0 || ss.execState.Load() != execIdle {
		t.Fatalf("after drain: depth %d, state %d", ss.q.depth.Load(), ss.execState.Load())
	}
	if got := srv.m.ExecHandoffs.Load(); got != batches {
		t.Fatalf("handoffs = %d, want %d (every batch ran on another read loop)", got, batches)
	}
	// Every checkpoint got its response, in submission order.
	br := bufio.NewReader(bytes.NewReader(c.wbuf))
	var r proto.Response
	for i := 1; i <= batches; i++ {
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if r.Kind != proto.RespVerdict || r.Seq != uint64(i) {
			t.Fatalf("response %d: kind=%v seq=%d, want verdict seq %d", i, r.Kind, r.Seq, i)
		}
	}
}

// TestCombiningHandoff (run under -race): eight producers submit into one
// session concurrently, each through the inline path a read loop uses.
// Whoever finds the role free drains everyone's batches (handing the role
// to a goroutine after combineLimit of them); the rest return at once.
// Every batch must be applied exactly once and in its connection's FIFO
// order, and once the role is released after the last submit, nothing may
// be pending and the queue must be empty.
func TestCombiningHandoff(t *testing.T) {
	const (
		producers = 8
		perConn   = 300
	)
	srv := &Server{cfg: Config{QueueLen: 1 << 20, Logf: func(string, ...any) {}}.withDefaults()}
	ss := newSession(srv, "combine", core.ModeAvoid, nil)
	defer ss.closeEngine()
	conns := make([]*conn, producers)
	for p := range conns {
		c := newConn(srv, nil)
		c.free = make(chan *batch, batchesPerConn)
		for i := 0; i < batchesPerConn; i++ {
			c.free <- &batch{c: c, events: make([]trace.Event, 2)}
		}
		conns[p] = c
	}
	var wg sync.WaitGroup
	for p, c := range conns {
		wg.Add(1)
		go func(p int, c *conn) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				// Each batch gates one task and releases it; the gate's
				// answer names the task, which encodes producer and order.
				task := int64(p)<<20 | int64(i)
				q := int64(p + 1)
				b := <-c.free
				b.events[0] = trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(task),
					Status: status(task, []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})}
				b.events[1] = trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(task)}
				b.n = 2
				c.pushed++
				ss.submit(b)
			}
		}(p, c)
	}
	wg.Wait()
	awaitRoleIdle(t, ss)
	if ss.q.depth.Load() != 0 {
		t.Fatalf("role released with queue depth %d", ss.q.depth.Load())
	}
	for p, c := range conns {
		if got := c.applied.Load(); got != c.pushed {
			t.Fatalf("producer %d: applied %d of %d", p, got, c.pushed)
		}
		br := bufio.NewReader(bytes.NewReader(c.wbuf))
		var r proto.Response
		for i := 0; i < perConn; i++ {
			if err := proto.ReadResponse(br, &r); err != nil {
				t.Fatalf("producer %d response %d: %v", p, i, err)
			}
			want := deps.TaskID(int64(p)<<20 | int64(i))
			if r.Kind != proto.RespGate || !r.Allowed || r.Task != want {
				t.Fatalf("producer %d response %d: %+v, want allowed gate of task %d", p, i, r, want)
			}
		}
		if _, err := br.ReadByte(); err == nil {
			t.Fatalf("producer %d: extra responses after %d", p, perConn)
		}
	}
	t.Logf("handoffs: %d of %d batches", srv.m.ExecHandoffs.Load(), producers*perConn)
}

// awaitRoleIdle waits (bounded) for a session's executor role to be
// released — by a read loop or by the goroutine it handed the role to.
func awaitRoleIdle(t *testing.T, ss *session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ss.execState.Load() != execIdle {
		if time.Now().After(deadline) {
			t.Fatal("executor role still held 5s after the last submit")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCombiningPassBounded (chaos, run under -race): seven producers
// stream into one session without pause while an eighth holds the
// executor role. The holder's submit must return — so its read loop goes
// back to reading — after a bounded pass, although the queue never
// empties: each streamed batch is cheap to push and dear to apply, and
// is pushed again as soon as it is recycled. Every batch is still applied
// exactly once, the eighth's checkpoint is answered, and the role ends
// free with an empty queue.
func TestCombiningPassBounded(t *testing.T) {
	const (
		streamers = 7
		ring      = 16 // batches per streamer: a deep queue to keep full
		tasks     = 1024
	)
	srv := &Server{cfg: Config{Logf: func(string, ...any) {}}.withDefaults()}
	ss := newSession(srv, "bounded", core.ModeDetect, nil)
	defer ss.closeEngine()
	// Stand in for a read loop mid-drain while the streamers fill the
	// queue: each pushes its whole ring, then waits for a recycled batch.
	if !ss.execState.CompareAndSwap(execIdle, execRunning) {
		t.Fatal("fresh session's role not free")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	conns := make([]*conn, streamers)
	for p := range conns {
		// The batches share one read-only event array.
		events := make([]trace.Event, 2*tasks)
		for k := 0; k < tasks; k++ {
			task := int64(p)<<20 | int64(k)
			q := int64(p + 1)
			events[k] = trace.Event{Kind: trace.KindBlock, Task: deps.TaskID(task),
				Status: status(task, []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})}
			events[tasks+k] = trace.Event{Kind: trace.KindUnblock, Task: deps.TaskID(task)}
		}
		c := newConn(srv, nil)
		c.free = make(chan *batch, ring)
		for i := 0; i < ring; i++ {
			c.free <- &batch{c: c, n: len(events), events: events}
		}
		conns[p] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case b := <-c.free:
					c.pushed++
					ss.submit(b)
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for ss.q.depth.Load() != streamers*ring {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", ss.q.depth.Load(), streamers*ring)
		}
		time.Sleep(time.Millisecond)
	}
	// Every streamer is waiting for a recycled batch, so the eighth
	// producer's submit is the one that takes the released role.
	ss.execState.Store(execIdle)
	c8 := newConn(srv, nil)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		c8.pushed++
		ss.submit(&batch{c: c8, n: 1,
			events: []trace.Event{{Kind: trace.KindVerdict, Verdict: trace.VerdictReported}}})
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Error("the role holder's submit did not return within 2s while seven producers streamed")
	}
	close(stop)
	wg.Wait()
	<-returned
	awaitRoleIdle(t, ss)
	if ss.q.depth.Load() != 0 {
		t.Fatalf("role released with queue depth %d", ss.q.depth.Load())
	}
	for p, c := range append(conns, c8) {
		if got := c.applied.Load(); got != c.pushed {
			t.Fatalf("producer %d: applied %d of %d", p, got, c.pushed)
		}
	}
	var r proto.Response
	if err := proto.ReadResponse(bufio.NewReader(bytes.NewReader(c8.wbuf)), &r); err != nil ||
		r.Kind != proto.RespVerdict || r.Seq != 1 {
		t.Fatalf("eighth producer's checkpoint answer: %+v, %v", r, err)
	}
	if got := srv.m.ExecHandoffs.Load(); got <= combineLimit {
		t.Fatalf("handoffs = %d, want more than one combining pass (%d)", got, combineLimit)
	}
}

// TestStalledConsumerCoalesceBacklog (chaos): the peer stops reading while
// the writer is stuck mid-flush, so responses pile into the fresh
// coalesce buffer. Crossing the response-count bound must disconnect the
// peer exactly once, drop later sends, and never deliver the backlog.
func TestStalledConsumerCoalesceBacklog(t *testing.T) {
	srv := &Server{cfg: Config{QueueLen: 4, Logf: func(string, ...any) {}}.withDefaults()}
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := newConn(srv, p1)
	go c.writeLoop()
	// First response: the writer swaps it out and blocks inside Write
	// (net.Pipe is unbuffered and the peer never reads).
	if !c.send(proto.Response{Kind: proto.RespVerdict, Seq: 1}) {
		t.Fatal("first send dropped")
	}
	c.nudge()
	waitFor(t, func() bool { return c.queueDepth() == 0 })
	// Now the pile-up: QueueLen is 4, so the fifth undelivered response
	// crosses the bound with a non-empty coalesce buffer behind it.
	dropped := 0
	for i := 0; i < 6; i++ {
		if !c.send(proto.Response{Kind: proto.RespVerdict, Seq: uint64(i + 2)}) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no send was refused despite the backlog")
	}
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnects = %d, want exactly 1", got)
	}
	if c.send(proto.Response{Kind: proto.RespVerdict, Seq: 99}) {
		t.Fatal("send after slow disconnect not dropped")
	}
	if got := srv.m.SlowDisconnects.Load(); got != 1 {
		t.Fatalf("slow disconnect double-counted: %d", got)
	}
	// The backlog was never delivered: the peer sees the close, no data.
	p2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := p2.Read(make([]byte, 256)); err == nil {
		t.Fatalf("stalled peer received %d bytes; expected only the disconnect", n)
	}
	// The writer exits instead of wedging on the dead socket.
	close(c.done)
	select {
	case <-c.writerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer wedged after slow disconnect")
	}
}

// TestCrashGCResumeExecutorLifecycle (chaos, on clock.Fake): a client
// crash leaves the session alive with its executor role free; a reconnect
// within the lease is served by the SAME session; after the lease the
// janitor collects it, and a fresh attach gets a new one.
func TestCrashGCResumeExecutorLifecycle(t *testing.T) {
	fc := clock.NewFake()
	s := testServer(t, Config{Lease: 2 * time.Second, SweepPeriod: time.Second, Clock: fc})

	gateRoundTrip := func(nc net.Conn, tw *trace.Writer, br *bufio.Reader, task int64) {
		t.Helper()
		if err := tw.WriteEvent(trace.Event{Kind: trace.KindBlock,
			Status: status(task, []deps.Resource{res(task, 1)}, []deps.Reg{reg(task, 1)})}); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		var r proto.Response
		if err := proto.ReadResponse(br, &r); err != nil {
			t.Fatalf("gate response: %v", err)
		}
		if r.Kind != proto.RespGate || !r.Allowed {
			t.Fatalf("gate response = %+v, want allowed", r)
		}
	}

	lookup := func() *session {
		sh := s.shardFor("lifecycle")
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.m["lifecycle"]
	}

	nc, tw, br, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if resumed {
		t.Fatal("fresh session reported as resumed")
	}
	first := lookup()
	gateRoundTrip(nc, tw, br, 1)
	// The read loop released the role when its drain ended, and the idle
	// role pins no connection (a session outlives its connections by the
	// lease; a pinned one would keep its batch ring alive that long).
	if first.execState.Load() != execIdle || first.q.depth.Load() != 0 {
		t.Fatalf("after a gate: state %d, depth %d", first.execState.Load(), first.q.depth.Load())
	}
	if first.own != nil {
		t.Fatal("idle executor role still references a connection")
	}

	// Crash. The connection goes; session and executor stay.
	nc.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	fc.Tick() // idle 1 of 2

	// Reconnect inside the lease: same session, and it still serves gate
	// decisions.
	nc2, tw2, br2, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if !resumed {
		t.Fatal("reconnect within lease did not resume")
	}
	if lookup() != first {
		t.Fatal("resume attached to a different session")
	}
	gateRoundTrip(nc2, tw2, br2, 2)

	// Crash again and let the lease run out: the janitor collects the
	// session.
	nc2.Close()
	waitFor(t, func() bool { return s.Metrics().ConnsOpen.Load() == 0 })
	for i := 0; i < 10 && s.Metrics().SessionsGCed.Load() == 0; i++ {
		fc.Tick()
	}
	if m := s.Metrics(); m.SessionsGCed.Load() != 1 || m.SessionsOpen.Load() != 0 {
		t.Fatalf("session not collected after lease: %d GCed, %d open", m.SessionsGCed.Load(), m.SessionsOpen.Load())
	}

	// A fresh attach is a new session, fully live.
	nc3, tw3, br3, resumed := rawAttach(t, s, "lifecycle", core.ModeAvoid)
	if resumed {
		t.Fatal("attach after GC resumed a collected session")
	}
	if lookup() == first {
		t.Fatal("attach after GC reused the collected session")
	}
	gateRoundTrip(nc3, tw3, br3, 3)
	nc3.Close()
}

// TestConcurrentSessionsParity is the wall the ISSUE asks for: 64
// concurrent sessions (half avoidance, half detection) replay the corpus
// against one server, every one asserting decision-for-decision parity
// with the in-process machinery — the avoidance mirror gate block for
// block, the detect pipeline verdict for verdict. Run under -race in CI,
// this is the correctness case for single-writer executors: many
// sessions live at once, each run by its read loop.
func TestConcurrentSessionsParity(t *testing.T) {
	s := testServer(t, Config{})
	corpus := corpusTraces(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	expected := make(map[string][]bool, len(names))
	for _, name := range names {
		exp, err := replay.ReplayTrace(corpus[name], replay.Detect, replay.Options{})
		if err != nil {
			t.Fatalf("%s: in-process replay: %v", name, err)
		}
		expected[name] = exp.Verdicts
	}

	const sessions = 64
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			tr := corpus[name]
			mode := core.ModeAvoid
			opts := client.ReplayOptions{CheckEvery: 4}
			if i%2 == 1 {
				mode = core.ModeDetect
				opts.Expected = expected[name]
			}
			c, err := client.Dial(client.Config{
				Addr:    s.Addr(),
				Session: fmt.Sprintf("wall-%d", i),
				Mode:    mode,
			})
			if err != nil {
				errCh <- fmt.Errorf("session %d (%s): dial: %w", i, name, err)
				return
			}
			defer c.Close()
			if _, err := client.ReplayTrace(c, tr, opts); err != nil {
				errCh <- fmt.Errorf("session %d (%s, %v): %w", i, name, mode, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.SlowDisconnects.Load() != 0 || m.MalformedConns.Load() != 0 {
		t.Fatalf("parity wall tripped failure paths: %d slow, %d malformed", m.SlowDisconnects.Load(), m.MalformedConns.Load())
	}
	// One connection per session: its read loop executes every batch.
	if m.ExecHandoffs.Load() != 0 {
		t.Fatalf("handoffs = %d in single-connection sessions, want 0", m.ExecHandoffs.Load())
	}
	if m.Batches.Load() < int64(sessions) {
		t.Fatalf("batches = %d, want >= %d", m.Batches.Load(), sessions)
	}
}
