package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one system-under-test process (armus-serve or armus-store)
// started by the benchmark from the binaries built from the checkout.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // protocol address, parsed from the start-up log
	http string // armus-serve -http address ("" for the store)
	done chan struct{}
	mu   sync.Mutex
	log  []string // last lines of output, for error reports
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clkTck = 100

// startProc execs bin with args and waits until a line of its output
// containing marker names the listen address (the rest of the line after
// marker, up to the first space).
func startProc(bin string, args []string, marker string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	pr, pw := io.Pipe()
	p.cmd.Stdout, p.cmd.Stderr = pw, pw
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		p.cmd.Wait()
		pw.Close()
		close(p.done)
	}()
	addrCh := make(chan string, 1)
	go func() {
		sent := false
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			if len(p.log) > 20 {
				p.log = p.log[1:]
			}
			p.mu.Unlock()
			if i := strings.Index(line, marker); i >= 0 && !sent {
				if f := strings.Fields(line[i+len(marker):]); len(f) > 0 {
					addrCh <- f[0]
					sent = true
				}
			}
		}
		io.Copy(io.Discard, pr)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited during start-up: %s", p.name, p.tail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s", p.name)
	}
}

func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, " | ")
}

// startServe starts armus-serve on loopback ports, with an archive in
// segDir unless it is empty. A short lease lets the server reclaim the
// closed sessions of the run (each replay opens a fresh one), so its
// memory is a steady state rather than a count of the sessions the run
// finished, and an archiving server seals each session's segment inside
// the measured interval, as a long-running one does.
func startServe(bin, segDir string) (*proc, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", "127.0.0.1:0", "-http", httpAddr, "-quiet", "-lease", "1s"}
	if segDir != "" {
		args = append(args, "-segment-dir", segDir)
	}
	p, err := startProc(filepath.Join(bin, "armus-serve"), args, "listening on ")
	if err != nil {
		return nil, err
	}
	p.http = httpAddr
	return p, nil
}

// startStore starts armus-store on a loopback port.
func startStore(bin string) (*proc, error) {
	return startProc(filepath.Join(bin, "armus-store"), []string{"-addr", "127.0.0.1:0"}, "listening on ")
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop sends SIGTERM (armus-serve drains and seals its archive; the store
// exits) and waits for the process to end, killing it after 30s.
func (p *proc) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not exit within 30s of SIGTERM", p.name)
	}
	// A SIGTERM that lands before armus-serve installs its handler (a
	// set-up rep stops it right after the first round trip) ends it by
	// the signal's default action; that is not a failure.
	st, _ := p.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !p.cmd.ProcessState.Success() && !(st.Signaled() && st.Signal() == syscall.SIGTERM) {
		return fmt.Errorf("%s exited with %v: %s", p.name, p.cmd.ProcessState, p.tail())
	}
	return nil
}

// procStatus returns a kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func procStatus(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// cpuNs returns the user+system CPU time of pid in nanoseconds.
func cpuNs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) * 1e9 / clkTck, nil
}

// promSnapshot is one scrape of armus-serve's /metrics: scalar series by
// name, and the cumulative buckets of each histogram.
type promSnapshot struct {
	vals    map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le  float64 // upper bound (+Inf for the last)
	cum float64
}

func scrape(httpAddr string) (*promSnapshot, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	snap := &promSnapshot{vals: map[string]float64{}, buckets: map[string][]bucket{}}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		if name, le, ok := strings.Cut(key, `_bucket{le="`); ok {
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				continue
			}
			snap.buckets[name] = append(snap.buckets[name], bucket{le: bound, cum: v})
			continue
		}
		snap.vals[key] = v
	}
	return snap, sc.Err()
}

// delta returns the increase of a counter between two scrapes.
func (s *promSnapshot) delta(prev *promSnapshot, name string) float64 {
	return s.vals[name] - prev.vals[name]
}

// histQuantile estimates the p-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket the
// rank falls in (the buckets are powers of two, so the estimate is within
// a factor of two). It also returns the observation count.
func (s *promSnapshot) histQuantile(prev *promSnapshot, name string, p float64) (float64, float64) {
	cur, old := s.buckets[name], prev.buckets[name]
	if len(cur) == 0 || len(cur) != len(old) {
		return 0, 0
	}
	total := cur[len(cur)-1].cum - old[len(old)-1].cum
	if total <= 0 {
		return 0, 0
	}
	rank := p * total
	lower, prevCum := 0.0, 0.0
	for i := range cur {
		c := cur[i].cum - old[i].cum
		if c >= rank && c > prevCum {
			if math.IsInf(cur[i].le, 1) { // no upper bound to interpolate to
				return lower, total
			}
			return lower + (cur[i].le-lower)*(rank-prevCum)/(c-prevCum), total
		}
		lower, prevCum = cur[i].le, c
	}
	return lower, total
}
