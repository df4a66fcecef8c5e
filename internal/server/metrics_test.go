package server

import (
	"math"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"armus/internal/client"
	"armus/internal/core"
	"armus/internal/deps"
)

// servedFamilies is the golden /metrics family list with each TYPE.
var servedFamilies = map[string]string{
	"armus_serve_sessions_open":                    "gauge",
	"armus_serve_sessions_total":                   "counter",
	"armus_serve_sessions_gced_total":              "counter",
	"armus_serve_session_rehydrated_total":         "counter",
	"armus_serve_sessions_foreign_total":           "counter",
	"armus_serve_snapshots_persisted_total":        "counter",
	"armus_serve_snapshots_dropped_total":          "counter",
	"armus_serve_snapshot_errors_total":            "counter",
	"armus_serve_conns_open":                       "gauge",
	"armus_serve_conns_total":                      "counter",
	"armus_serve_events_total":                     "counter",
	"armus_serve_batches_total":                    "counter",
	"armus_serve_gate_allowed_total":               "counter",
	"armus_serve_gate_rejected_total":              "counter",
	"armus_serve_checkpoints_total":                "counter",
	"armus_serve_reports_total":                    "counter",
	"armus_serve_exec_handoffs_total":              "counter",
	"armus_serve_malformed_conns_total":            "counter",
	"armus_serve_slow_disconnects_total":           "counter",
	"armus_serve_queue_depth":                      "gauge",
	"armus_serve_exec_queue_depth":                 "gauge",
	"armus_serve_segment_batches_total":            "counter",
	"armus_serve_segment_batches_dropped_total":    "counter",
	"armus_serve_segment_events_total":             "counter",
	"armus_serve_segment_verdicts_total":           "counter",
	"armus_serve_segment_bytes_written_total":      "counter",
	"armus_serve_segment_sealed_total":             "counter",
	"armus_serve_segment_active_writers":           "gauge",
	"armus_serve_segment_errors_total":             "counter",
	"armus_serve_segment_quarantined_total":        "counter",
	"armus_serve_segment_sessions_quiesced_total":  "counter",
	"armus_serve_segment_retention_segments_total": "counter",
	"armus_serve_segment_retention_bytes_total":    "counter",
	"armus_serve_segment_retention_sweeps_total":   "counter",
	"armus_serve_segment_oldest_sealed_nanos":      "gauge",
	"armus_serve_exec_batch_events":                "histogram",
	"armus_serve_stage_queue_wait_us":              "histogram",
	"armus_serve_stage_verify_us":                  "histogram",
	"armus_serve_stage_flush_us":                   "histogram",
	"armus_serve_build_info":                       "gauge",
	"armus_serve_uptime_seconds":                   "gauge",
}

var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parseExposition checks one /metrics body and returns each histogram's
// le bounds in order.
func parseExposition(t *testing.T, body string) map[string][]string {
	t.Helper()
	help, typ := map[string]int{}, map[string]int{}
	values, lastLe, lastCum := map[string]float64{}, map[string]float64{}, map[string]float64{}
	les := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				typ[f[2]]++
				if want := servedFamilies[f[2]]; f[3] != want {
					t.Errorf("%s: TYPE %s, want %q", f[2], f[3], want)
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if name, ok := strings.CutSuffix(m[1], "_bucket"); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(m[2], `{le="`), `"}`), 64)
			if err != nil || len(les[name]) > 0 && (le <= lastLe[name] || v < lastCum[name]) {
				t.Fatalf("%s: bucket line %q does not follow le=%v cum=%v", name, line, lastLe[name], lastCum[name])
			}
			les[name] = append(les[name], m[2])
			lastLe[name], lastCum[name] = le, v
			continue
		}
		values[m[1]] = v
	}
	for name := range servedFamilies {
		if help[name] != 1 || typ[name] != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines, want one each", name, help[name], typ[name])
		}
	}
	if len(typ) != len(servedFamilies) {
		t.Errorf("served %d families, want %d", len(typ), len(servedFamilies))
	}
	for name := range les {
		if le, cum := lastLe[name], lastCum[name]; !math.IsInf(le, 1) || cum != values[name+"_count"] {
			t.Errorf("%s: last bucket le=%v holds %v, want +Inf holding _count %v",
				name, le, cum, values[name+"_count"])
		}
	}
	return les
}

// TestMetricsExposition scrapes a server that has served traffic and
// checks the exposition against the golden family list: one HELP and
// TYPE per family, parseable samples, monotone histograms whose +Inf
// bucket is _count, and the same fixed bucket list on every scrape.
func TestMetricsExposition(t *testing.T) {
	s := testServer(t, Config{})
	c := dialTest(t, s, client.Config{Session: "expo", Mode: core.ModeAvoid})
	for i := 1; i <= 20; i++ {
		q := int64(i%4 + 1)
		if err := c.Block(status(int64(i), []deps.Resource{res(q, 1)}, []deps.Reg{reg(q, 1)})); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	first := parseExposition(t, httpGet(t, h.URL+"/metrics", 200))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	second := parseExposition(t, httpGet(t, h.URL+"/metrics", 200))
	for name, les := range first {
		if !slices.Equal(les, second[name]) {
			t.Errorf("%s: bucket lists differ between scrapes", name)
		}
	}
	if len(first) != 4 {
		t.Errorf("%d histograms served, want 4", len(first))
	}
}
