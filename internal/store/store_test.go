package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(srv.Addr())
	t.Cleanup(func() { c.Close(); srv.Close() })
	return srv, c
}

func TestPing(t *testing.T) {
	_, c := newPair(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// hget reads hash[field] through HGETALL.
func hget(t testing.TB, c *Client, hash, field string) ([]byte, bool) {
	t.Helper()
	m, err := c.HGetAll(hash)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m[field]
	return v, ok
}

func TestSetGetDel(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("k", "f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok := hget(t, c, "k", "f"); !ok || string(v) != "v" {
		t.Fatalf("HGetAll = %q, %v", v, ok)
	}
	n, err := c.Del("k", "absent")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	if _, ok := hget(t, c, "k", "f"); ok {
		t.Fatal("deleted hash still readable")
	}
}

func TestBinarySafeValues(t *testing.T) {
	_, c := newPair(t)
	payload := []byte{0, 1, 2, '\r', '\n', 0xff, '$', '*', 0}
	if err := c.HSet("bin", "f", payload); err != nil {
		t.Fatal(err)
	}
	if v, _ := hget(t, c, "bin", "f"); !bytes.Equal(v, payload) {
		t.Fatalf("binary round trip failed: %v", v)
	}
}

func TestEmptyValue(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("e", "f", nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := hget(t, c, "e", "f"); !ok || len(v) != 0 {
		t.Fatalf("empty value round trip: %q %v", v, ok)
	}
}

func TestHashOps(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("h", "f1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f1", []byte("c")); err != nil { // overwrite
		t.Fatal(err)
	}
	m, err := c.HGetAll("h")
	if err != nil || len(m) != 2 || string(m["f1"]) != "c" || string(m["f2"]) != "b" {
		t.Fatalf("HGetAll = %v, %v", m, err)
	}
	if m, err := c.HGetAll("absent"); err != nil || len(m) != 0 {
		t.Fatalf("HGetAll absent = %v, %v", m, err)
	}
	// DEL removes whole hashes.
	if n, err := c.Del("h"); err != nil || n != 1 {
		t.Fatalf("Del hash = %d, %v", n, err)
	}
}

func TestServerErrorReply(t *testing.T) {
	_, c := newPair(t)
	_, err := c.do([]byte("BOGUS"))
	if !errors.Is(err, ErrServerError) {
		t.Fatalf("bogus command: %v", err)
	}
	// The connection must survive a server error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newPair(t)
	const N = 8
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := Dial(srv.Addr())
			defer c.Close()
			for j := 0; j < 50; j++ {
				k := fmt.Sprintf("k%d", i)
				if err := c.HSet(k, "f", []byte(fmt.Sprintf("%d", j))); err != nil {
					errs <- err
					return
				}
				if _, err := c.HGetAll(k); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientReconnects is the fault-tolerance property of §5.2: the client
// survives a server restart (the restarted store is empty, which the
// detection algorithm tolerates — the next publish repopulates it).
func TestClientReconnects(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	if err := c.HSet("k", "f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Server down: commands fail but do not wedge the client.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded against a dead server")
	}
	// Restart on the same address.
	srv2, err := NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
	if n, err := c.HLen("k"); err != nil || n != 0 {
		t.Fatalf("restarted store should be empty: %d, %v", n, err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

func TestLargeValue(t *testing.T) {
	_, c := newPair(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.HSet("big", "f", big); err != nil {
		t.Fatal(err)
	}
	if v, _ := hget(t, c, "big", "f"); !bytes.Equal(v, big) {
		t.Fatalf("large value corrupted (len=%d)", len(v))
	}
}

func BenchmarkHSetHGetAll(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := Dial(srv.Addr())
	defer c.Close()
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.HSet("bench", "f", payload); err != nil {
			b.Fatal(err)
		}
		if _, err := c.HGetAll("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientConcurrentReconnect hammers one SHARED client from several
// goroutines through a server kill + rebind: commands racing the restart
// may fail (counted), in-flight commands see their connection die
// mid-command, and afterwards every worker must complete a run of clean
// commands on the same client instance. Run with -race: the client's
// single-connection locking is the property under test.
func TestClientConcurrentReconnect(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()

	const workers = 8
	var phase atomic.Int64 // 0: healthy, 1: outage+restart window, 2: recovered
	var healthyOps [workers]atomic.Int64
	var recoveredAt [workers]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				val := []byte(fmt.Sprintf("v%d", n))
				err := c.HSet(key, "f", val)
				if err == nil {
					got, gerr := c.HGetAll(key)
					v, ok := got["f"]
					if gerr == nil && !ok {
						// The write landed on the killed server; the
						// restarted store is empty.
						gerr = errors.New("write lost to the restart")
					}
					if gerr == nil && string(v) != string(val) {
						t.Errorf("worker %d read %q, wrote %q", i, v, val)
						return
					}
					err = gerr
				}
				switch p := phase.Load(); {
				case err == nil && p == 0:
					healthyOps[i].Add(1)
				case err != nil && p == 0:
					t.Errorf("worker %d failed against a healthy server: %v", i, err)
					return
				case err != nil:
					// Outage window: failures are expected and legal.
				case err == nil && p == 2 && recoveredAt[i].Load() == 0:
					recoveredAt[i].Store(n)
				}
			}
		}()
	}
	waitAll := func(what string, cond func(i int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < workers; i++ {
			for !cond(i) {
				if time.Now().After(deadline) {
					close(stop)
					wg.Wait()
					t.Fatalf("timed out waiting for %s (worker %d)", what, i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Phase 0: every worker completes clean commands on the shared client.
	waitAll("healthy traffic", func(i int) bool { return healthyOps[i].Load() >= 20 })
	// Phase 1: kill the server mid-traffic (in-flight commands lose their
	// connection), then rebind the same address.
	phase.Store(1)
	srv.Close()
	srv2, err := NewServer(addr)
	if err != nil {
		close(stop)
		wg.Wait()
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// Phase 2: every worker must complete clean commands again, on the
	// same client, without any reset.
	phase.Store(2)
	waitAll("recovery", func(i int) bool { return recoveredAt[i].Load() > 0 })
	close(stop)
	wg.Wait()
}

func TestMGetPrefix(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("armus:site:1", "base", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("armus:site:2", "delta", []byte("d2")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("armus:site:2", "base", []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("other", "base", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGetPrefix("armus:site:")
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Key: "armus:site:1", Field: "base", Value: []byte("b1")},
		{Key: "armus:site:2", Field: "base", Value: []byte("b2")},
		{Key: "armus:site:2", Field: "delta", Value: []byte("d2")},
	}
	if len(got) != len(want) {
		t.Fatalf("MGetPrefix = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Field != want[i].Field || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	empty, err := c.MGetPrefix("nosuch:")
	if err != nil || len(empty) != 0 {
		t.Fatalf("MGetPrefix(nosuch) = %v, %v", empty, err)
	}
}

func TestHLen(t *testing.T) {
	_, c := newPair(t)
	if n, err := c.HLen("h"); err != nil || n != 0 {
		t.Fatalf("HLen absent = %d, %v", n, err)
	}
	if err := c.HSet("h", "f1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if n, err := c.HLen("h"); err != nil || n != 2 {
		t.Fatalf("HLen = %d, %v", n, err)
	}
}

// TestPipelineExec drives a mixed batch through one flush and checks the
// replies come back in order, with per-command errors (nil reply, server
// error) carried in Reply.Err without aborting the batch.
func TestPipelineExec(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("h", "base", []byte("b")); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.HSet("k", "f", []byte("v"))
	p.HSet("h", "delta", []byte("d"))
	p.HLen("h")
	p.MGetPrefix("h")
	p.Del("absent")
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	reps, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("got %d replies", len(reps))
	}
	if reps[0].Simple != "OK" || reps[1].Simple != "OK" {
		t.Fatalf("write replies = %+v %+v", reps[0], reps[1])
	}
	if reps[2].N != 2 {
		t.Fatalf("HLEN reply = %+v", reps[2])
	}
	entries, err := reps[3].Entries()
	if err != nil || len(entries) != 2 {
		t.Fatalf("MGETP reply = %v, %v", entries, err)
	}
	if reps[4].N != 0 || reps[4].Err != nil {
		t.Fatalf("DEL reply = %+v", reps[4])
	}
	// Exec cleared the queue: an immediate Exec is a no-op.
	if reps, err := p.Exec(); err != nil || reps != nil {
		t.Fatalf("empty Exec = %v, %v", reps, err)
	}
	// The pipeline is reusable, and a server error mid-batch does not
	// poison the commands after it.
	p.add("BOGUS", []byte("BOGUS"))
	p.HSet("k2", "f", []byte("v2"))
	reps, err = p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(reps[0].Err, ErrServerError) {
		t.Fatalf("bogus reply = %+v", reps[0])
	}
	if reps[1].Simple != "OK" || reps[1].Err != nil {
		t.Fatalf("hset after bogus = %+v", reps[1])
	}
}

// TestPipelineReconnects: a pipelined batch against a restarted server is
// retried whole, once, on a fresh connection.
func TestPipelineReconnects(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2, err := NewServer(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	p := c.Pipeline()
	p.HSet("k", "f", []byte("v"))
	p.MGetPrefix("k")
	reps, err := p.Exec()
	if err != nil {
		t.Fatalf("pipeline after restart: %v", err)
	}
	entries, err := reps[1].Entries()
	if err != nil || len(entries) != 1 || string(entries[0].Value) != "v" {
		t.Fatalf("entries after restart = %v, %v", entries, err)
	}
}

func TestClientStats(t *testing.T) {
	_, c := newPair(t)
	if err := c.HSet("k", "f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HGetAll("k"); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.HSet("k2", "f", []byte("v"))
	p.MGetPrefix("k")
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RoundTrips != 3 {
		t.Fatalf("RoundTrips = %d, want 3", st.RoundTrips)
	}
	if st.Commands["HSET"] != 2 || st.Commands["HGETALL"] != 1 || st.Commands["MGETP"] != 1 {
		t.Fatalf("Commands = %v", st.Commands)
	}
}

// TestClientSurvivesManyRestarts cycles the server through several
// kill/rebind rounds under sequential traffic: the client must recover
// after every round (regression bed for the redial-once retry logic).
func TestClientSurvivesManyRestarts(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := Dial(addr)
	defer c.Close()
	for round := 0; round < 4; round++ {
		if err := c.HSet("k", "f", []byte{byte(round)}); err != nil {
			t.Fatalf("round %d: set against live server: %v", round, err)
		}
		srv.Close()
		_ = c.Ping() // may fail; must not wedge
		if srv, err = NewServer(addr); err != nil {
			t.Skipf("round %d: could not rebind %s: %v", round, addr, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("round %d: client did not recover: %v", round, err)
		}
	}
	srv.Close()
}

// TestMalformedTailFlushesBatchReplies pins the serve loop's error exit:
// a pipelined batch whose last frame is malformed still delivers the
// replies to the commands that executed before the connection closes —
// the reply-coalescing flush must not swallow them.
func TestMalformedTailFlushesBatchReplies(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two valid commands, then a frame whose declared bulk length lies.
	batch := "*1\r\n$4\r\nPING\r\n" +
		"*4\r\n$4\r\nHSET\r\n$1\r\nk\r\n$1\r\nf\r\n$1\r\nv\r\n" +
		"*1\r\n$5\r\nBO\nGUS\r\n"
	if _, err := conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn) // server closes after the bad frame
	if err != nil {
		t.Fatal(err)
	}
	want := "+PONG\r\n+OK\r\n"
	if string(got) != want {
		t.Fatalf("replies before close = %q, want %q", got, want)
	}
}
