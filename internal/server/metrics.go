package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"armus/internal/obs"
	"armus/internal/segment"
)

// Version reports the build's module version and Go toolchain version —
// the labels of armus_serve_build_info and the armus-serve startup banner.
func Version() (version, goVersion string) {
	version = "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	return version, runtime.Version()
}

// batchBucketBounds are the upper bounds (inclusive, in events) of the
// executor batch-size histogram; a final implicit +Inf bucket catches the
// rest. Log2 spacing: batch size doubles as ingest outruns the executor,
// so the histogram is a direct read on how much coalescing the MPSC queue
// is buying.
var batchBucketBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

const batchBucketCount = len(batchBucketBounds) + 1 // + the +Inf bucket

// Metrics are the server's atomic operational counters. They back the
// Prometheus-text /metrics endpoint and the loadgen/CI assertions; all hot
// paths touch them with lock-free atomic adds only.
type Metrics struct {
	SessionsOpen       atomic.Int64 // gauge: sessions currently in the table
	SessionsTotal      atomic.Int64 // counter: sessions ever opened
	SessionsGCed       atomic.Int64 // counter: sessions expired by the janitor
	SessionsRehydrated atomic.Int64 // counter: sessions rebuilt from a store snapshot on attach
	SessionsForeign    atomic.Int64 // counter: attached sessions another fleet member owns

	SnapshotsPersisted atomic.Int64 // counter: session snapshots written to the store
	SnapshotsDropped   atomic.Int64 // counter: snapshots dropped (persister backlog)
	SnapshotErrors     atomic.Int64 // counter: store I/O or codec failures on the snapshot path

	ConnsOpen  atomic.Int64 // gauge: live connections
	ConnsTotal atomic.Int64 // counter: connections ever accepted

	Events       atomic.Int64 // counter: verifier events ingested
	Batches      atomic.Int64 // counter: executor batches processed
	GateAllowed  atomic.Int64 // counter: avoidance blocks admitted
	GateRejected atomic.Int64 // counter: avoidance blocks refused (verdicts)
	Checkpoints  atomic.Int64 // counter: verdict checkpoints answered
	Reports      atomic.Int64 // counter: deadlock reports pushed

	ExecHandoffs atomic.Int64 // counter: batches executed off the read loop that decoded them

	MalformedConns  atomic.Int64 // counter: connections dropped for bad framing
	SlowDisconnects atomic.Int64 // counter: connections dropped for a full coalesce buffer

	// The executor batch-size histogram (events per processed batch).
	batchBuckets [batchBucketCount]atomic.Int64
	batchSum     atomic.Int64

	// Server-wide stage-latency histograms (internal/obs): where a gate's
	// server-side time goes. Always on — each observation is a few atomic
	// adds on the executor (queue-wait, verify) or whichever side flushes
	// (flush). Per-session copies live in session.ob; these aggregate
	// across sessions and survive session GC, which is what a Prometheus
	// scrape needs (monotone cumulative series).
	StageQueueWait obs.Hist // decode/enqueue -> executor pickup, per batch
	StageVerify    obs.Hist // executor occupancy, per batch
	StageFlush     obs.Hist // oldest buffered response -> write() done, per flush
}

// observeBatch records one processed batch of n events.
func (m *Metrics) observeBatch(n int) {
	i := 0
	for i < len(batchBucketBounds) && int64(n) > batchBucketBounds[i] {
		i++
	}
	m.batchBuckets[i].Add(1)
	m.batchSum.Add(int64(n))
}

// MetricsSnapshot is a point-in-time copy, for tests and /healthz.
type MetricsSnapshot struct {
	SessionsOpen, SessionsTotal, SessionsGCed int64
	SessionsRehydrated, SessionsForeign       int64
	SnapshotsPersisted, SnapshotsDropped      int64
	SnapshotErrors                            int64
	ConnsOpen, ConnsTotal                     int64
	Events, Batches                           int64
	GateAllowed, GateRejected                 int64
	Checkpoints, Reports                      int64
	ExecHandoffs                              int64
	MalformedConns, SlowDisconnects           int64
	// QueueDepth is the summed egress backlog (undelivered responses)
	// over live connections; ExecQueueDepth is the summed executor ingest
	// backlog (queued batches) over open sessions.
	QueueDepth     int64
	ExecQueueDepth int64
	// BatchBuckets/BatchSum snapshot the batch-size histogram
	// (per-bucket counts, not cumulative; last bucket is +Inf).
	BatchBuckets [batchBucketCount]int64
	BatchSum     int64
	// Segment snapshots the durable trace archive's counters (all zero
	// when archiving is disabled).
	Segment segment.MetricsSnapshot
	// Stage-latency histograms (see Metrics.Stage*).
	StageQueueWait obs.HistSnapshot
	StageVerify    obs.HistSnapshot
	StageFlush     obs.HistSnapshot
	// UptimeSeconds is seconds since the server was constructed.
	UptimeSeconds int64
}

// Metrics returns a snapshot of the counters plus the summed egress and
// executor backlogs.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		SessionsOpen:       s.m.SessionsOpen.Load(),
		SessionsTotal:      s.m.SessionsTotal.Load(),
		SessionsGCed:       s.m.SessionsGCed.Load(),
		SessionsRehydrated: s.m.SessionsRehydrated.Load(),
		SessionsForeign:    s.m.SessionsForeign.Load(),
		SnapshotsPersisted: s.m.SnapshotsPersisted.Load(),
		SnapshotsDropped:   s.m.SnapshotsDropped.Load(),
		SnapshotErrors:     s.m.SnapshotErrors.Load(),
		ConnsOpen:          s.m.ConnsOpen.Load(),
		ConnsTotal:         s.m.ConnsTotal.Load(),
		Events:             s.m.Events.Load(),
		Batches:            s.m.Batches.Load(),
		GateAllowed:        s.m.GateAllowed.Load(),
		GateRejected:       s.m.GateRejected.Load(),
		Checkpoints:        s.m.Checkpoints.Load(),
		Reports:            s.m.Reports.Load(),
		ExecHandoffs:       s.m.ExecHandoffs.Load(),
		MalformedConns:     s.m.MalformedConns.Load(),
		SlowDisconnects:    s.m.SlowDisconnects.Load(),
		BatchSum:           s.m.batchSum.Load(),
	}
	for i := range s.m.batchBuckets {
		snap.BatchBuckets[i] = s.m.batchBuckets[i].Load()
	}
	snap.Segment = s.segMetrics()
	snap.StageQueueWait = s.m.StageQueueWait.Snapshot()
	snap.StageVerify = s.m.StageVerify.Snapshot()
	snap.StageFlush = s.m.StageFlush.Snapshot()
	snap.UptimeSeconds = int64(time.Since(s.startTime) / time.Second)
	s.mu.Lock()
	for c := range s.conns {
		snap.QueueDepth += int64(c.queueDepth())
	}
	s.mu.Unlock()
	snap.ExecQueueDepth = s.execQueueDepth()
	return snap
}

// execQueueDepth sums the executor ingest backlog (queued batches) over
// open sessions — the quiescence gauge /healthz reports even while
// draining, so an orchestrator can tell "draining, work pending" from
// "draining, quiesced".
func (s *Server) execQueueDepth() int64 {
	var depth int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, ss := range sh.m {
			depth += ss.q.depth.Load()
		}
		sh.mu.Unlock()
	}
	return depth
}

// Handler returns the HTTP observability surface: GET /healthz (liveness
// plus a small JSON status), GET /metrics (Prometheus text format),
// GET /debug/armus/sessions (live per-session introspection, debug.go)
// and — only with Config.Pprof — /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining || s.closed
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if draining {
			// Still report the executor backlog: exec_queue_depth reaching 0
			// is the quiescence signal a drain orchestrator polls for
			// (replacing "sleep and hope" kill windows).
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"draining","exec_queue_depth":%d}`+"\n",
				s.execQueueDepth())
			return
		}
		snap := s.Metrics()
		fmt.Fprintf(w, `{"status":"ok","sessions":%d,"conns":%d,"events":%d,"exec_queue_depth":%d}`+"\n",
			snap.SessionsOpen, snap.ConnsOpen, snap.Events, snap.ExecQueueDepth)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Metrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, m := range []struct {
			name, typ, help string
			v               int64
		}{
			{"armus_serve_sessions_open", "gauge", "Sessions currently in the table.", snap.SessionsOpen},
			{"armus_serve_sessions_total", "counter", "Sessions ever opened.", snap.SessionsTotal},
			{"armus_serve_sessions_gced_total", "counter", "Sessions expired by the lease janitor.", snap.SessionsGCed},
			{"armus_serve_session_rehydrated_total", "counter", "Sessions rebuilt from a store snapshot on attach (fleet failover).", snap.SessionsRehydrated},
			{"armus_serve_sessions_foreign_total", "counter", "Attached sessions the fleet shard map assigns to another member.", snap.SessionsForeign},
			{"armus_serve_snapshots_persisted_total", "counter", "Session snapshots written to the store.", snap.SnapshotsPersisted},
			{"armus_serve_snapshots_dropped_total", "counter", "Session snapshots dropped on persister backlog.", snap.SnapshotsDropped},
			{"armus_serve_snapshot_errors_total", "counter", "Store or codec failures on the snapshot path.", snap.SnapshotErrors},
			{"armus_serve_conns_open", "gauge", "Live client connections.", snap.ConnsOpen},
			{"armus_serve_conns_total", "counter", "Connections ever accepted.", snap.ConnsTotal},
			{"armus_serve_events_total", "counter", "Verifier events ingested.", snap.Events},
			{"armus_serve_batches_total", "counter", "Executor batches processed.", snap.Batches},
			{"armus_serve_gate_allowed_total", "counter", "Avoidance blocks admitted.", snap.GateAllowed},
			{"armus_serve_gate_rejected_total", "counter", "Avoidance blocks refused (deadlock would close).", snap.GateRejected},
			{"armus_serve_checkpoints_total", "counter", "Verdict checkpoints answered.", snap.Checkpoints},
			{"armus_serve_reports_total", "counter", "Deadlock reports pushed to subscribers.", snap.Reports},
			{"armus_serve_exec_handoffs_total", "counter", "Batches executed by a goroutine other than the read loop that decoded them.", snap.ExecHandoffs},
			{"armus_serve_malformed_conns_total", "counter", "Connections dropped for violating the trace framing.", snap.MalformedConns},
			{"armus_serve_slow_disconnects_total", "counter", "Connections dropped for an overflowing coalesce buffer.", snap.SlowDisconnects},
			{"armus_serve_queue_depth", "gauge", "Summed undelivered responses over live connections.", snap.QueueDepth},
			{"armus_serve_exec_queue_depth", "gauge", "Summed queued executor batches over open sessions.", snap.ExecQueueDepth},
			{"armus_serve_segment_batches_total", "counter", "Event batches accepted by the segment tee.", snap.Segment.Batches},
			{"armus_serve_segment_batches_dropped_total", "counter", "Tee batches dropped on a full archive queue.", snap.Segment.BatchesDropped},
			{"armus_serve_segment_events_total", "counter", "Events archived into trace segments.", snap.Segment.Events},
			{"armus_serve_segment_verdicts_total", "counter", "Verdict events archived (checkpoints, rejections, reports).", snap.Segment.VerdictsArchived},
			{"armus_serve_segment_bytes_written_total", "counter", "Compressed bytes written to segment files.", snap.Segment.BytesWritten},
			{"armus_serve_segment_sealed_total", "counter", "Segments sealed (rotation, idle age, session GC, shutdown).", snap.Segment.Sealed},
			{"armus_serve_segment_active_writers", "gauge", "Sessions with an open (active) segment writer.", snap.Segment.ActiveWriters},
			{"armus_serve_segment_errors_total", "counter", "Segment write, seal or scan failures.", snap.Segment.Errors},
			{"armus_serve_segment_quarantined_total", "counter", "Segment files quarantined (corrupt or crash leftovers).", snap.Segment.QuarantinedFiles},
			{"armus_serve_segment_sessions_quiesced_total", "counter", "Segment writers sealed for idleness or session GC.", snap.Segment.SessionsQuiesced},
			{"armus_serve_segment_retention_segments_total", "counter", "Segments reclaimed by the retention manager.", snap.Segment.RetainedSegments},
			{"armus_serve_segment_retention_bytes_total", "counter", "Bytes reclaimed by the retention manager.", snap.Segment.RetainedBytes},
			{"armus_serve_segment_retention_sweeps_total", "counter", "Retention/idle-seal sweep passes completed.", snap.Segment.RetentionSweeps},
			{"armus_serve_segment_oldest_sealed_nanos", "gauge", "Seal time (UnixNano) of the oldest retained segment.", snap.Segment.OldestSealedNanos},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.v)
		}
		// The batch-size histogram, in Prometheus histogram convention
		// (cumulative buckets).
		const hname = "armus_serve_exec_batch_events"
		fmt.Fprintf(w, "# HELP %s Events per processed executor batch.\n# TYPE %s histogram\n", hname, hname)
		cum := int64(0)
		for i, bound := range batchBucketBounds {
			cum += snap.BatchBuckets[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", hname, bound, cum)
		}
		cum += snap.BatchBuckets[batchBucketCount-1]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", hname, cum)
		fmt.Fprintf(w, "%s_sum %d\n", hname, snap.BatchSum)
		fmt.Fprintf(w, "%s_count %d\n", hname, cum)
		// The per-stage latency histograms (µs buckets).
		writeStageHist(w, "armus_serve_stage_queue_wait_us",
			"Batch queue wait: decode/enqueue to executor pickup, µs.", snap.StageQueueWait)
		writeStageHist(w, "armus_serve_stage_verify_us",
			"Batch verify: executor occupancy per batch, µs.", snap.StageVerify)
		writeStageHist(w, "armus_serve_stage_flush_us",
			"Response flush: oldest buffered response to write completion, µs.", snap.StageFlush)
		version, goVersion := Version()
		fmt.Fprintf(w, "# HELP armus_serve_build_info Build metadata (always 1).\n"+
			"# TYPE armus_serve_build_info gauge\n"+
			"armus_serve_build_info{version=%q,go=%q} 1\n", version, goVersion)
		fmt.Fprintf(w, "# HELP armus_serve_uptime_seconds Seconds since the server started.\n"+
			"# TYPE armus_serve_uptime_seconds gauge\n"+
			"armus_serve_uptime_seconds %d\n", snap.UptimeSeconds)
	})
	s.registerDebug(mux)
	return mux
}

// writeStageHist renders one obs histogram in Prometheus text convention:
// cumulative µs buckets, _sum in µs, _count.
func writeStageHist(w http.ResponseWriter, name, help string, h obs.HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i := 0; i < obs.NumBuckets-1; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, obs.BucketBound(i)/1000, cum)
	}
	cum += h.Buckets[obs.NumBuckets-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum/1000)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}
