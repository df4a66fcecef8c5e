package main

// Self-tests of the benchmark. They build armus-serve and armus-store from
// the enclosing repository, so run them from this directory:
//
//	cd perfbench && go test -count=1 .

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds the system under test once per test binary.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+"/", "./cmd/armus-serve", "./cmd/armus-store")
		cmd.Dir = ".."
		var out []byte
		if out, buildErr = cmd.CombinedOutput(); buildErr != nil {
			buildErr = &buildError{buildErr, string(out)}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

type buildError struct {
	err error
	out string
}

func (e *buildError) Error() string { return e.err.Error() + ": " + e.out }

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// runBench runs the benchmark in process and returns its exit code, its
// output and the decoded last line (nil when there is none).
func runBench(t *testing.T, args ...string) (int, string, *result) {
	t.Helper()
	args = append(args, "-bin", binaries(t), "-work", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String() + stderr.String()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res *result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		res = nil
	}
	return code, out, res
}

// benchmarkJSON reads the metric contract from the repository root.
func benchmarkJSON(t *testing.T) (e2e, layers []struct{ Name, Unit string }) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(workloadGen[w], 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(workloadGen[w], 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(workloadGen[w], 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave inputs %s then %s", w, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
	}
}

// TestFlippedExpectationFails inverts one expected verdict inside the
// benchmark on every workload; each run must exit non-zero with that
// divergence as its one failed operation.
func TestFlippedExpectationFails(t *testing.T) {
	for _, w := range workloadNames {
		code, out, res := runBench(t, "--workload", w, "--seed", "3", "--seconds", "1", "--flip-expected")
		var fails []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "FAIL ") {
				fails = append(fails, line)
			}
		}
		if code == 0 || res == nil || res.Correct || res.Failed != 1 ||
			len(fails) != 1 || !strings.Contains(fails[0], ": divergence: ") {
			t.Errorf("%s: want exit 1 with one divergence as the only failure, got exit %d:\n%s", w, code, out)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each metric BENCHMARK.json names is reported, finite and
// with its unit, and that every end-to-end metric of the issue is printed
// where it applies.
func TestShortRuns(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	printed := map[string][]string{
		gateAvoid:    {"gate_rtt_p50_us", "gate_rtt_p99_us"},
		streamDetect: {"checkpoint_rtt_p50_us", "checkpoint_rtt_p99_us", "report_latency_p50_us", "report_latency_p99_us", "archive_read_events_per_s"},
		distRounds:   {"dist_round_p50_us", "dist_round_p99_us"},
		verifyInproc: {"verdict_p50_us", "verdict_p99_us"},
	}
	for _, w := range workloadNames {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": e2e, "1": layers} {
			code, out, res := runBench(t, "--workload", w, "--seed", "5", "--seconds", "2", "--trace", trace)
			if code != 0 || res == nil || !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d:\n%s", w, trace, code, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v, want a finite value in %s", w, trace, m.Name, got, m.Unit)
				}
			}
			var names []string
			if trace == "0" {
				names = append(printed[w], "events_per_s", "setup_s", "max_rss_mb", "failed_ops_ratio")
			} else {
				names = []string{"gate-path budget", "net.gate_remainder_us.p50", "bench.tracing_overhead"}
			}
			for _, name := range names {
				if !strings.Contains(out, name) {
					t.Errorf("%s trace %s: output does not mention %s", w, trace, name)
				}
			}
		}
	}
}

// TestStoreCountsRepeat checks that the dist-rounds store counts of one
// pass over fixed inputs repeat exactly.
func TestStoreCountsRepeat(t *testing.T) {
	set, err := generate(workloadGen[distRounds], 11)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{bin: binaries(t), work: t.TempDir(), workers: 2, epoch: time.Now()}
	var got [2]*distCounts
	for i := range got {
		r, err := e.runLoop(distRounds, set, 0, 500*time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.m.failed != 0 {
			t.Fatalf("run %d: %d failed operations: %v", i, r.m.failed, r.m.errs)
		}
		got[i] = r.distCounts
	}
	a, b := got[0], got[1]
	if a.mutations != b.mutations || a.cmds != b.cmds || a.rts != b.rts ||
		a.full != b.full || a.delta != b.delta {
		t.Errorf("store counts differ between passes over the same inputs: %+v vs %+v",
			[]int64{a.mutations, a.cmds, a.rts, a.full, a.delta}, []int64{b.mutations, b.cmds, b.rts, b.full, b.delta})
	}
}
