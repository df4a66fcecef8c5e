package server

import (
	"encoding/json"
	"runtime"
	"time"

	"armus/internal/core"
	"armus/internal/deps"
	"armus/internal/obs"
	"armus/internal/server/proto"
	"armus/internal/trace"
)

// The session executor: a ROLE, not a goroutine. The read loop that finds
// it free after pushing its batch drains the session queue inline — its
// own batch and whatever other connections pushed meanwhile (flat
// combining, Hendler et al., SPAA 2010). Only the role holder mutates
// deps.State or asks the verifier anything. Single-writer is what lets the
// gate hot path drop every lock: the paper's Definition 4.1 makes a
// blocked status a pure function of the blocked task, so merging the
// statuses of many connections is order-insensitive per task — any
// serialization the queue happens to produce yields the same verdicts an
// in-process verifier would have.

// Executor role states (session.execState).
const (
	execIdle int32 = iota
	execRunning
)

// combineLimit bounds a read loop's combining pass: at the next batch of
// another connection after this many, it hands the still-held role to a
// fresh goroutine and goes back to reading its own socket, which a shared
// session's other connections could otherwise keep unread indefinitely.
const combineLimit = 8

// submit pushes a decoded batch and, if the executor role is free, takes
// it, drains the queue and writes the caller's own responses. Called by
// the read loops only. No batch is ever stranded: push increments q.depth
// before the node is published (seq-cst atomics throughout), and a holder
// re-checks depth after its release store. A producer whose increment
// preceded the re-check is served by the holder retaking the role; one
// whose increment followed it finds the role free with its own CAS. So a
// read loop's batches are applied or queued behind a holder that drains
// them, and teardown waits for them (awaitApplied): a session with no
// read loop attached has an empty queue.
func (ss *session) submit(b *batch) {
	own := b.c
	ss.q.push(b)
	if ss.execState.CompareAndSwap(execIdle, execRunning) {
		ss.drain(own, ss.q.pop())
		own.flush(true)
	}
}

// drain runs the held executor role from batch b (nil: none popped yet)
// until the queue is empty, then releases it. own is the connection of
// the read loop holding the role; nil marks a hand-off goroutine, which
// srv.wg counts and combineLimit does not bound.
func (ss *session) drain(own *conn, b *batch) {
	if own == nil {
		defer ss.srv.wg.Done()
	}
	ss.own = own
	for served := 0; ; b = ss.q.pop() {
		if b == nil {
			if ss.q.depth.Load() != 0 {
				runtime.Gosched() // a producer is mid-push; its link is one store away
				continue
			}
			ss.own = nil // the session outlives the connection; do not pin it
			ss.execState.Store(execIdle)
			if ss.q.depth.Load() == 0 || !ss.execState.CompareAndSwap(execIdle, execRunning) {
				return
			}
			ss.own = own
			continue
		}
		if b.c != own {
			if ss.own != nil {
				// own's answers must not wait out a long drain.
				ss.own = nil
				own.nudge()
			}
			if own != nil && served == combineLimit {
				ss.srv.wg.Add(1) // Server.Close waits for the hand-off
				go ss.drain(nil, b)
				return
			}
			served++
			ss.srv.m.ExecHandoffs.Add(1)
		}
		ss.process(b)
	}
}

// respond buffers an executor response for c, nudging c's writer unless
// c's own read loop holds the role and so writes the response itself.
func (ss *session) respond(c *conn, r proto.Response) {
	if c.send(r) && c != ss.own {
		c.nudge()
	}
}

// process applies one decoded batch — the ingest hot path, running on the
// executor role's holder with exclusive engine ownership: no lock anywhere.
// Steady-state (same tasks re-blocking, warm pools and buffers) it
// performs zero heap allocations — guarded by TestExecutorPathZeroAlloc.
func (ss *session) process(b *batch) {
	// Queue-wait stage: decode to executor pickup (batches injected
	// without a read loop carry no stamp). The stamp diffs and histogram
	// adds are a handful of atomics — the path stays allocation-free
	// (TestExecutorPathZeroAlloc).
	tDeq := obs.Nanotime()
	ss.batchQueueNs = 0
	if b.decNs != 0 {
		ss.batchQueueNs = tDeq - b.decNs
		ss.srv.m.StageQueueWait.Observe(ss.batchQueueNs)
		ss.ob.QueueWait.Observe(ss.batchQueueNs)
	}
	c := b.c
	events := b.events[:b.n]
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case trace.KindBlock:
			if ss.mode == core.ModeAvoid {
				ss.gate(c, e)
			} else {
				ss.st.SetBlocked(e.Status)
			}
		case trace.KindUnblock:
			ss.st.Clear(e.Task)
			if ss.blocked != nil {
				delete(ss.blocked, e.Task)
			}
		case trace.KindVerdict:
			// A client->server verdict event is a CHECKPOINT: "tell me
			// whether the session is deadlocked right now". (Recorded
			// traces carry verdict events too; ingesting one costs the
			// sender an answer it may ignore.)
			t0 := obs.Nanotime()
			c.checkSeq++
			ss.srv.m.Checkpoints.Add(1)
			d := ss.verdict()
			ss.respond(c, proto.Response{
				Kind:       proto.RespVerdict,
				Seq:        c.checkSeq,
				Deadlocked: d,
			})
			ss.ob.LastDeadlocked.Store(d)
			ss.ob.Flight.Record(obs.GateRecord{
				Ordinal:    uint64(ss.ob.Checkpoints.Add(1)),
				Kind:       obs.RecordCheckpoint,
				Task:       int64(e.Task),
				Deadlocked: d,
				QueueNs:    ss.batchQueueNs,
				VerifyNs:   obs.Nanotime() - t0,
				AtNs:       t0,
			})
		default:
			// Structural events (register/arrive/drop) do not mutate the
			// dependency state — a membership change of a blocked task is
			// always followed by its status refresh. Same contract as the
			// replayer.
		}
	}
	if ss.mode == core.ModeDetect {
		ss.report()
	}
	ss.maybeSnapshot()
	// Verify stage: executor occupancy for the whole batch (gate queries,
	// state mutation, reports, snapshot encode).
	verifyNs := obs.Nanotime() - tDeq
	ss.srv.m.StageVerify.Observe(verifyNs)
	ss.ob.Verify.Observe(verifyNs)
	ss.srv.m.Events.Add(int64(len(events)))
	ss.srv.m.Batches.Add(1)
	ss.srv.m.BatchEvents.Observe(int64(len(events)))
	c.applied.Add(1)
	c.recycle(b)
}

// gate is the avoidance gate, verbatim the in-process semantics:
// tentatively insert the status, run the targeted cycle query from the
// blocking task, roll back and refuse on a cycle. The decision goes back
// to the submitting connection only.
func (ss *session) gate(c *conn, e *trace.Event) {
	t0 := obs.Nanotime()
	ss.st.SetBlocked(e.Status)
	cyc, _ := ss.st.CycleThrough(e.Status.Task, &ss.sc)
	r := proto.Response{Kind: proto.RespGate, Task: e.Status.Task, Allowed: cyc == nil}
	if cyc == nil {
		ss.blocked[e.Status.Task] = struct{}{}
		ss.srv.m.GateAllowed.Add(1)
	} else {
		ss.st.Clear(e.Status.Task)
		ss.srv.m.GateRejected.Add(1)
		ss.ob.Rejections.Add(1)
		if ss.srv.seg != nil {
			ss.teeVerdict(trace.VerdictRejected, e.Status, cyc.Resources)
		}
		// cyc is freshly allocated by the deadlock path; handing its slices
		// to the coalesce buffer is safe.
		r.Tasks, r.Resources = cyc.Tasks, cyc.Resources
	}
	ss.respond(c, r)
	rec := obs.GateRecord{
		Ordinal:  uint64(ss.ob.Gates.Add(1)),
		Kind:     obs.RecordGate,
		Task:     int64(e.Status.Task),
		Rejected: cyc != nil,
		QueueNs:  ss.batchQueueNs,
		VerifyNs: obs.Nanotime() - t0,
		AtNs:     t0,
	}
	ss.ob.Flight.Record(rec)
	if cyc != nil {
		ss.dumpFlight("gate-rejected", rec)
	} else if sg := ss.srv.cfg.SlowGate; sg > 0 && rec.QueueNs+rec.VerifyNs >= int64(sg) {
		// Slow-gate trigger: server-side time (queue wait plus this gate's
		// own work) over the operator threshold dumps the flight ring.
		ss.dumpFlight("slow-gate", rec)
	}
}

// verdict answers "is the session state deadlocked right now" with the
// session's engine — identical machinery to the replay pipelines.
func (ss *session) verdict() bool {
	if ss.mode == core.ModeAvoid {
		for t := range ss.blocked {
			if cyc, _ := ss.st.CycleThrough(t, &ss.sc); cyc != nil {
				return true
			}
		}
		return false
	}
	return ss.ver.CheckNow() != nil
}

// report pushes a deadlock report to every subscribed connection of the
// session when the state transitions into a deadlock. CheckNow is
// version-cached, so the steady (non-deadlocked, unchanged) case costs a
// version compare; ss.mu is only taken on the transition.
func (ss *session) report() {
	derr := ss.ver.CheckNow()
	d := derr != nil
	if d && !ss.wasDeadlocked {
		ss.srv.m.Reports.Add(1)
		if ss.srv.seg != nil {
			ss.teeVerdict(trace.VerdictReported, deps.Blocked{}, derr.Cycle.Resources)
		}
		ss.srv.cfg.Logf("armus-serve: session %q deadlocked: %v", ss.name, derr)
		ss.mu.Lock()
		for c := range ss.conns {
			if c.subscribe {
				ss.respond(c, proto.Response{
					Kind:      proto.RespReport,
					Tasks:     derr.Cycle.Tasks,
					Resources: derr.Cycle.Resources,
				})
			}
		}
		ss.mu.Unlock()
		now := obs.Nanotime()
		ss.ob.Flight.Record(obs.GateRecord{
			Ordinal:    uint64(ss.ob.Reports.Add(1)),
			Kind:       obs.RecordReport,
			Deadlocked: true,
			QueueNs:    ss.batchQueueNs,
			AtNs:       now,
		})
	}
	ss.ob.LastDeadlocked.Store(d)
	ss.wasDeadlocked = d
}

// flightDumpMinGap rate-limits flight-recorder dumps per session: a storm
// of rejections (one contended phaser, many tasks) emits one dump per gap,
// not one per gate.
const flightDumpMinGap = int64(100 * time.Millisecond)

// flightDump is the structured record a slow or rejected gate emits: the
// triggering decision plus the session's whole flight ring, with the
// session name and per-kind ordinals that `armus-trace query -session
// <name>` resolves back to the archived events.
type flightDump struct {
	Session string           `json:"session"`
	Mode    string           `json:"mode"`
	Trigger string           `json:"trigger"` // "slow-gate" | "gate-rejected"
	Record  obs.GateRecord   `json:"record"`
	Ring    []obs.GateRecord `json:"ring"`
}

// dumpFlight emits the session's flight ring as one structured JSON log
// line. Runs on the executor role, off the steady-state path (rejections and
// threshold breaches only) — allocation here is acceptable, a dump storm
// is not, hence the rate limit.
func (ss *session) dumpFlight(trigger string, rec obs.GateRecord) {
	now := obs.Nanotime()
	if ss.lastDumpNs != 0 && now-ss.lastDumpNs < flightDumpMinGap {
		return
	}
	ss.lastDumpNs = now
	ss.flightBuf = ss.ob.Flight.Snapshot(ss.flightBuf)
	j, err := json.Marshal(flightDump{
		Session: ss.name,
		Mode:    ss.mode.String(),
		Trigger: trigger,
		Record:  rec,
		Ring:    ss.flightBuf,
	})
	if err != nil {
		return
	}
	ss.srv.cfg.DumpLogf("armus-serve: flight-recorder %s", j)
}
