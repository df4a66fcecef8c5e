package server

import (
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"armus/internal/obs"
)

// snapshotMetricNames maps every MetricsSnapshot field path to the
// /metrics series that must carry it. The parity test walks the struct by
// reflection, so ADDING a snapshot field without mapping it here — or
// mapping it without rendering it — fails loudly instead of silently
// drifting (the /metrics table and the snapshot are maintained by hand).
// Histogram-valued fields (obs.HistSnapshot, the batch-bucket array) map
// to their series name and are asserted as full Prometheus histograms.
var snapshotMetricNames = map[string]string{
	"SessionsOpen":       "armus_serve_sessions_open",
	"SessionsTotal":      "armus_serve_sessions_total",
	"SessionsGCed":       "armus_serve_sessions_gced_total",
	"SessionsRehydrated": "armus_serve_session_rehydrated_total",
	"SessionsForeign":    "armus_serve_sessions_foreign_total",
	"SnapshotsPersisted": "armus_serve_snapshots_persisted_total",
	"SnapshotsDropped":   "armus_serve_snapshots_dropped_total",
	"SnapshotErrors":     "armus_serve_snapshot_errors_total",
	"ConnsOpen":          "armus_serve_conns_open",
	"ConnsTotal":         "armus_serve_conns_total",
	"Events":             "armus_serve_events_total",
	"Batches":            "armus_serve_batches_total",
	"GateAllowed":        "armus_serve_gate_allowed_total",
	"GateRejected":       "armus_serve_gate_rejected_total",
	"Checkpoints":        "armus_serve_checkpoints_total",
	"Reports":            "armus_serve_reports_total",
	"ExecHandoffs":       "armus_serve_exec_handoffs_total",
	"MalformedConns":     "armus_serve_malformed_conns_total",
	"SlowDisconnects":    "armus_serve_slow_disconnects_total",
	"QueueDepth":         "armus_serve_queue_depth",
	"ExecQueueDepth":     "armus_serve_exec_queue_depth",
	"UptimeSeconds":      "armus_serve_uptime_seconds",

	// The batch-size histogram: both fields back one series.
	"BatchBuckets": "armus_serve_exec_batch_events",
	"BatchSum":     "armus_serve_exec_batch_events",

	// Stage-latency histograms.
	"StageQueueWait": "armus_serve_stage_queue_wait_us",
	"StageVerify":    "armus_serve_stage_verify_us",
	"StageFlush":     "armus_serve_stage_flush_us",

	// The durable-archive block.
	"Segment.Batches":           "armus_serve_segment_batches_total",
	"Segment.BatchesDropped":    "armus_serve_segment_batches_dropped_total",
	"Segment.Events":            "armus_serve_segment_events_total",
	"Segment.BytesWritten":      "armus_serve_segment_bytes_written_total",
	"Segment.Sealed":            "armus_serve_segment_sealed_total",
	"Segment.Errors":            "armus_serve_segment_errors_total",
	"Segment.ActiveWriters":     "armus_serve_segment_active_writers",
	"Segment.RetainedSegments":  "armus_serve_segment_retention_segments_total",
	"Segment.RetainedBytes":     "armus_serve_segment_retention_bytes_total",
	"Segment.VerdictsArchived":  "armus_serve_segment_verdicts_total",
	"Segment.SessionsQuiesced":  "armus_serve_segment_sessions_quiesced_total",
	"Segment.QuarantinedFiles":  "armus_serve_segment_quarantined_total",
	"Segment.RetentionSweeps":   "armus_serve_segment_retention_sweeps_total",
	"Segment.OldestSealedNanos": "armus_serve_segment_oldest_sealed_nanos",
}

// extraMetricNames are /metrics series with no MetricsSnapshot field
// behind them (label-carrying build metadata).
var extraMetricNames = map[string]bool{
	"armus_serve_build_info": true,
}

// histogramNames are the series rendered in Prometheus histogram
// convention (le-bucket lines plus exactly one _sum and one _count).
var histogramNames = map[string]bool{
	"armus_serve_exec_batch_events":   true,
	"armus_serve_stage_queue_wait_us": true,
	"armus_serve_stage_verify_us":     true,
	"armus_serve_stage_flush_us":      true,
}

// snapshotFieldPaths walks MetricsSnapshot and returns every leaf field
// path the parity map must cover: int64 leaves, int64 arrays (one path),
// obs.HistSnapshot values (one path), and nested structs descended with a
// dotted prefix.
func snapshotFieldPaths(t *testing.T, typ reflect.Type, prefix string) []string {
	t.Helper()
	var out []string
	histType := reflect.TypeOf(obs.HistSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		path := prefix + f.Name
		switch {
		case f.Type == histType:
			out = append(out, path)
		case f.Type.Kind() == reflect.Int64:
			out = append(out, path)
		case f.Type.Kind() == reflect.Array && f.Type.Elem().Kind() == reflect.Int64:
			out = append(out, path)
		case f.Type.Kind() == reflect.Struct:
			out = append(out, snapshotFieldPaths(t, f.Type, path+".")...)
		default:
			t.Fatalf("MetricsSnapshot field %s has unhandled type %v — extend the parity walk", path, f.Type)
		}
	}
	return out
}

// TestMetricsSnapshotTextParity asserts the hand-maintained /metrics text
// rendering and the MetricsSnapshot struct cannot drift: every snapshot
// field maps to a series, every mapped plain series appears EXACTLY once
// in the output, every histogram has exactly one _sum and _count, and
// every armus_serve_* series in the output is accounted for.
func TestMetricsSnapshotTextParity(t *testing.T) {
	// Every snapshot field is mapped, and nothing stale is mapped.
	paths := snapshotFieldPaths(t, reflect.TypeOf(MetricsSnapshot{}), "")
	seenPaths := map[string]bool{}
	for _, p := range paths {
		if _, ok := snapshotMetricNames[p]; !ok {
			t.Errorf("MetricsSnapshot field %s has no /metrics mapping — add it to snapshotMetricNames and the Handler table", p)
		}
		seenPaths[p] = true
	}
	for p := range snapshotMetricNames {
		if !seenPaths[p] {
			t.Errorf("snapshotMetricNames maps %s, which is not a MetricsSnapshot field", p)
		}
	}

	// Scrape a live server.
	s := testServer(t, Config{})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	body := httpGet(t, h.URL+"/metrics", 200)

	// Parse: metric name -> bare-sample count, plus histogram piece counts.
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? -?\d+(\.\d+)?$`)
	bare := map[string]int{}      // name (no suffix, no labels) -> count
	histSum := map[string]int{}   // histogram base -> _sum lines
	histCount := map[string]int{} // histogram base -> _count lines
	histBuckets := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable /metrics line: %q", line)
			continue
		}
		name := m[1]
		switch {
		case strings.HasSuffix(name, "_bucket"):
			histBuckets[strings.TrimSuffix(name, "_bucket")]++
		case strings.HasSuffix(name, "_sum") && histogramNames[strings.TrimSuffix(name, "_sum")]:
			histSum[strings.TrimSuffix(name, "_sum")]++
		case strings.HasSuffix(name, "_count") && histogramNames[strings.TrimSuffix(name, "_count")]:
			histCount[strings.TrimSuffix(name, "_count")]++
		default:
			bare[name]++
		}
	}

	// Every mapped series appears with the right shape, exactly once.
	for path, name := range snapshotMetricNames {
		if histogramNames[name] {
			if histBuckets[name] == 0 {
				t.Errorf("%s (%s): no _bucket lines in /metrics", name, path)
			}
			if histSum[name] != 1 || histCount[name] != 1 {
				t.Errorf("%s (%s): _sum x%d, _count x%d, want exactly 1 of each",
					name, path, histSum[name], histCount[name])
			}
			continue
		}
		if got := bare[name]; got != 1 {
			t.Errorf("%s (%s): appears %d times in /metrics, want exactly once", name, path, got)
		}
	}

	// No unaccounted armus_serve_* series.
	known := map[string]bool{}
	for _, name := range snapshotMetricNames {
		known[name] = true
	}
	for name := range bare {
		if !known[name] && !extraMetricNames[name] {
			t.Errorf("/metrics serves %s, which no MetricsSnapshot field backs — map it", name)
		}
	}
	for name := range histBuckets {
		if !histogramNames[name] {
			t.Errorf("/metrics serves histogram %s not in histogramNames", name)
		}
	}
	for name := range extraMetricNames {
		if bare[name] != 1 {
			t.Errorf("%s: appears %d times, want exactly once", name, bare[name])
		}
	}
}
