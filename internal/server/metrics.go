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

// Metrics are the server's operational counters and histograms, each
// series declared once by its field's metric tag (obs.Registry). They back
// /metrics, /healthz, /debug/armus/sessions and the loadgen/CI assertions;
// hot paths touch them with lock-free atomic adds only.
type Metrics struct {
	SessionsOpen       atomic.Int64 `metric:"armus_serve_sessions_open,gauge,Sessions currently in the table."`
	SessionsTotal      atomic.Int64 `metric:"armus_serve_sessions_total,counter,Sessions ever opened."`
	SessionsGCed       atomic.Int64 `metric:"armus_serve_sessions_gced_total,counter,Sessions expired by the lease janitor."`
	SessionsRehydrated atomic.Int64 `metric:"armus_serve_session_rehydrated_total,counter,Sessions rebuilt from a store snapshot on attach (fleet failover)."`
	SessionsForeign    atomic.Int64 `metric:"armus_serve_sessions_foreign_total,counter,Attached sessions the fleet shard map assigns to another member."`

	SnapshotsPersisted atomic.Int64 `metric:"armus_serve_snapshots_persisted_total,counter,Session snapshots written to the store."`
	SnapshotsDropped   atomic.Int64 `metric:"armus_serve_snapshots_dropped_total,counter,Session snapshots dropped on persister backlog."`
	SnapshotErrors     atomic.Int64 `metric:"armus_serve_snapshot_errors_total,counter,Store or codec failures on the snapshot path."`

	ConnsOpen  atomic.Int64 `metric:"armus_serve_conns_open,gauge,Live client connections."`
	ConnsTotal atomic.Int64 `metric:"armus_serve_conns_total,counter,Connections ever accepted."`

	Events       atomic.Int64 `metric:"armus_serve_events_total,counter,Verifier events ingested."`
	Batches      atomic.Int64 `metric:"armus_serve_batches_total,counter,Executor batches processed."`
	GateAllowed  atomic.Int64 `metric:"armus_serve_gate_allowed_total,counter,Avoidance blocks admitted."`
	GateRejected atomic.Int64 `metric:"armus_serve_gate_rejected_total,counter,Avoidance blocks refused (deadlock would close)."`
	Checkpoints  atomic.Int64 `metric:"armus_serve_checkpoints_total,counter,Verdict checkpoints answered."`
	Reports      atomic.Int64 `metric:"armus_serve_reports_total,counter,Deadlock reports pushed to subscribers."`

	ExecHandoffs atomic.Int64 `metric:"armus_serve_exec_handoffs_total,counter,Batches executed by a goroutine other than the read loop that decoded them."`

	MalformedConns  atomic.Int64 `metric:"armus_serve_malformed_conns_total,counter,Connections dropped for violating the trace framing."`
	SlowDisconnects atomic.Int64 `metric:"armus_serve_slow_disconnects_total,counter,Connections dropped for an overflowing coalesce buffer."`

	// BatchEvents is the executor batch-size histogram: a direct read on
	// how much coalescing the session queue is buying.
	BatchEvents obs.Hist `metric:"armus_serve_exec_batch_events,histogram,Events per processed executor batch."`

	// Server-wide stage-latency histograms, observed in ns and served in
	// µs: where a gate's server-side time goes. Per-session copies live in
	// session.ob; these aggregate across sessions and survive session GC,
	// which is what a scrape needs (monotone cumulative series).
	StageQueueWait obs.Hist `metric:"armus_serve_stage_queue_wait_us,histogram/1000,Batch queue wait: decode/enqueue to executor pickup, µs."`
	StageVerify    obs.Hist `metric:"armus_serve_stage_verify_us,histogram/1000,Batch verify: executor occupancy per batch, µs."`
	StageFlush     obs.Hist `metric:"armus_serve_stage_flush_us,histogram/1000,Response flush: oldest buffered response to write completion, µs."`

	// Segment is the durable archive's counters: the live Store's, or a
	// zero set that still renders when archiving is disabled.
	Segment *segment.Metrics
}

// Metrics returns the server's live counters; read a field with Load.
func (s *Server) Metrics() *Metrics { return &s.m }

// queueDepth sums the egress backlog (undelivered responses) over live
// connections.
func (s *Server) queueDepth() int64 {
	var depth int64
	s.mu.Lock()
	for c := range s.conns {
		depth += int64(c.queueDepth())
	}
	s.mu.Unlock()
	return depth
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
		fmt.Fprintf(w, `{"status":"ok","sessions":%d,"conns":%d,"events":%d,"exec_queue_depth":%d}`+"\n",
			s.m.SessionsOpen.Load(), s.m.ConnsOpen.Load(), s.m.Events.Load(), s.execQueueDepth())
	})
	var reg obs.Registry
	reg.Register(&s.m)
	reg.Gauge("armus_serve_queue_depth", "Summed undelivered responses over live connections.", s.queueDepth)
	reg.Gauge("armus_serve_exec_queue_depth", "Summed queued executor batches over open sessions.", s.execQueueDepth)
	reg.Register(s.m.Segment)
	version, goVersion := Version()
	reg.Info("armus_serve_build_info", "Build metadata (always 1).", fmt.Sprintf("version=%q,go=%q", version, goVersion))
	reg.Gauge("armus_serve_uptime_seconds", "Seconds since the server started.", s.uptimeSeconds)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WriteText(w) // a failed write means the scraper went away
	})
	s.registerDebug(mux)
	return mux
}

// uptimeSeconds is whole seconds since the server was constructed.
func (s *Server) uptimeSeconds() int64 { return int64(time.Since(s.startTime) / time.Second) }
