package store

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is a fault-tolerant store client: if the connection drops (server
// restart, network blip) the next command transparently redials. This is
// the property §5.2 relies on for resisting data-store failures — sites
// keep running and simply retry on the next verification round.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	roundTrips int64
	commands   map[string]int64
}

// ClientStats counts the traffic a client has issued: RoundTrips is the
// number of network flushes (one per do call, one per pipeline Exec —
// retries after a reconnect do not count twice), Commands the number of
// commands sent, by name. The dist tests use these to assert a check
// round costs one MGETP instead of KEYS plus N GETs.
type ClientStats struct {
	RoundTrips int64
	Commands   map[string]int64
}

// Stats returns a copy of the client's traffic counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ClientStats{RoundTrips: c.roundTrips, Commands: make(map[string]int64, len(c.commands))}
	for k, v := range c.commands {
		out.Commands[k] = v
	}
	return out
}

func (c *Client) countLocked(name string) {
	if c.commands == nil {
		c.commands = make(map[string]int64)
	}
	c.commands[name]++
}

// Dial creates a client for the server at addr. The connection is
// established lazily on first use.
func Dial(addr string) *Client {
	return &Client{addr: addr, dialTimeout: 2 * time.Second}
}

// Close closes the current connection, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	network, addr := "tcp", c.addr
	if path, ok := strings.CutPrefix(c.addr, "unix:"); ok {
		network, addr = "unix", path
	}
	conn, err := net.DialTimeout(network, addr, c.dialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	return nil
}

func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one command and reads one reply, retrying once on a broken
// connection.
func (c *Client) do(args ...[]byte) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundTrips++
	c.countLocked(string(args[0]))
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			lastErr = err
			continue
		}
		if err := c.writeCommandLocked(args); err != nil {
			c.dropLocked()
			lastErr = err
			continue
		}
		rep, err := c.readReplyLocked()
		if err != nil {
			// ErrNil and server errors are valid replies, not transport
			// failures: do not retry those.
			if errors.Is(err, ErrNil) || errors.Is(err, ErrServerError) {
				return rep, err
			}
			c.dropLocked()
			lastErr = err
			continue
		}
		return rep, nil
	}
	return reply{}, fmt.Errorf("store: %s unreachable: %w", c.addr, lastErr)
}

func (c *Client) writeCommandLocked(args [][]byte) error {
	if err := c.writeArgsLocked(args); err != nil {
		return err
	}
	return c.w.Flush()
}

// writeArgsLocked buffers one command without flushing, so a pipeline can
// share a single flush (and a single network round trip) across commands.
func (c *Client) writeArgsLocked(args [][]byte) error {
	if err := writeHeader(c.w, '*', len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeBulk(c.w, a); err != nil {
			return err
		}
	}
	return nil
}

type reply struct {
	simple string
	n      int
	bulk   []byte
	array  [][]byte
}

func (c *Client) readReplyLocked() (reply, error) {
	line, err := readLine(c.r)
	if err != nil {
		return reply{}, err
	}
	if len(line) == 0 {
		return reply{}, errors.New("store: empty reply")
	}
	switch line[0] {
	case '+':
		return reply{simple: string(line[1:])}, nil
	case '-':
		return reply{}, fmt.Errorf("%w: %s", ErrServerError, line[1:])
	case ':':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return reply{}, err
		}
		return reply{n: n}, nil
	case '$':
		// Re-parse as a bulk string: push the line back logically.
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return reply{}, err
		}
		if n == -1 {
			return reply{}, ErrNil
		}
		if n < 0 || n > maxBulk {
			return reply{}, fmt.Errorf("store: bad bulk length %d", n)
		}
		buf := make([]byte, n+2)
		if _, err := readFull(c.r, buf); err != nil {
			return reply{}, err
		}
		return reply{bulk: buf[:n]}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return reply{}, err
		}
		if n < 0 || n > 1<<20 {
			return reply{}, fmt.Errorf("store: bad array length %d", n)
		}
		arr := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			b, err := readBulk(c.r)
			if err != nil {
				return reply{}, err
			}
			arr = append(arr, b)
		}
		return reply{array: arr}, nil
	default:
		return reply{}, fmt.Errorf("store: bad reply %q", line)
	}
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	rep, err := c.do([]byte("PING"))
	if err != nil {
		return err
	}
	if rep.simple != "PONG" {
		return fmt.Errorf("store: unexpected ping reply %q", rep.simple)
	}
	return nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(keys ...string) (int, error) {
	args := make([][]byte, 0, len(keys)+1)
	args = append(args, []byte("DEL"))
	for _, k := range keys {
		args = append(args, []byte(k))
	}
	rep, err := c.do(args...)
	return rep.n, err
}

// HSet stores field=value in hash.
func (c *Client) HSet(hash, field string, value []byte) error {
	_, err := c.do([]byte("HSET"), []byte(hash), []byte(field), value)
	return err
}

// HGetAll returns every field of the hash.
func (c *Client) HGetAll(hash string) (map[string][]byte, error) {
	rep, err := c.do([]byte("HGETALL"), []byte(hash))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(rep.array)/2)
	for i := 0; i+1 < len(rep.array); i += 2 {
		out[string(rep.array[i])] = rep.array[i+1]
	}
	return out, nil
}

// HLen returns the number of fields in hash (0 if absent).
func (c *Client) HLen(hash string) (int, error) {
	rep, err := c.do([]byte("HLEN"), []byte(hash))
	return rep.n, err
}

// Entry is one (key, field, value) triple from an MGETP reply: each hash
// contributes one Entry per field. Entries arrive sorted by (Key, Field).
type Entry struct {
	Key   string
	Field string
	Value []byte
}

func parseEntries(arr [][]byte) ([]Entry, error) {
	if len(arr)%3 != 0 {
		return nil, fmt.Errorf("store: MGETP reply length %d not a multiple of 3", len(arr))
	}
	out := make([]Entry, 0, len(arr)/3)
	for i := 0; i < len(arr); i += 3 {
		out = append(out, Entry{Key: string(arr[i]), Field: string(arr[i+1]), Value: arr[i+2]})
	}
	return out, nil
}

// MGetPrefix returns every hash field stored under keys with the given
// prefix in one round trip.
func (c *Client) MGetPrefix(prefix string) ([]Entry, error) {
	rep, err := c.do([]byte("MGETP"), []byte(prefix))
	if err != nil {
		return nil, err
	}
	return parseEntries(rep.array)
}

// Reply is one command's result from a pipelined Exec. Err carries ErrNil
// or a server error for that command; transport failures abort the whole
// Exec instead.
type Reply struct {
	Simple string
	N      int
	Bulk   []byte
	Array  [][]byte
	Err    error
}

// Entries parses the reply of a pipelined MGetPrefix.
func (r Reply) Entries() ([]Entry, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	return parseEntries(r.Array)
}

// Pipeline batches commands into one buffered write with a single flush;
// replies are matched in order, so N commands cost one network round trip
// instead of N. On a broken connection the whole batch is retried once
// after a redial — callers must only pipeline idempotent commands (HSET,
// DEL, reads), which is all the verification rounds need. Queued
// values are referenced, not copied: do not mutate them before Exec.
// A Pipeline is not safe for concurrent use; Exec resets it for reuse.
type Pipeline struct {
	c     *Client
	names []string
	args  [][][]byte
}

// Pipeline returns an empty pipeline bound to this client.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

func (p *Pipeline) add(name string, args ...[]byte) {
	p.names = append(p.names, name)
	p.args = append(p.args, args)
}

// Len reports how many commands are queued.
func (p *Pipeline) Len() int { return len(p.names) }

// Del queues DEL key.
func (p *Pipeline) Del(key string) {
	p.add("DEL", []byte("DEL"), []byte(key))
}

// HSet queues HSET hash field value.
func (p *Pipeline) HSet(hash, field string, value []byte) {
	p.add("HSET", []byte("HSET"), []byte(hash), []byte(field), value)
}

// HLen queues HLEN hash.
func (p *Pipeline) HLen(hash string) {
	p.add("HLEN", []byte("HLEN"), []byte(hash))
}

// MGetPrefix queues MGETP prefix.
func (p *Pipeline) MGetPrefix(prefix string) {
	p.add("MGETP", []byte("MGETP"), []byte(prefix))
}

// Exec flushes the queued commands in one write and reads one reply per
// command, in order. The queue is cleared for reuse whether or not Exec
// succeeds. An empty pipeline returns (nil, nil) without touching the
// network.
func (p *Pipeline) Exec() ([]Reply, error) {
	defer func() {
		p.names = p.names[:0]
		p.args = p.args[:0]
	}()
	if len(p.args) == 0 {
		return nil, nil
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundTrips++
	for _, name := range p.names {
		c.countLocked(name)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			lastErr = err
			continue
		}
		werr := error(nil)
		for _, args := range p.args {
			if err := c.writeArgsLocked(args); err != nil {
				werr = err
				break
			}
		}
		if werr == nil {
			werr = c.w.Flush()
		}
		if werr != nil {
			c.dropLocked()
			lastErr = werr
			continue
		}
		out := make([]Reply, len(p.args))
		ok := true
		for i := range p.args {
			rep, err := c.readReplyLocked()
			if err != nil && !errors.Is(err, ErrNil) && !errors.Is(err, ErrServerError) {
				c.dropLocked()
				lastErr = err
				ok = false
				break
			}
			out[i] = Reply{Simple: rep.simple, N: rep.n, Bulk: rep.bulk, Array: rep.array, Err: err}
		}
		if !ok {
			continue
		}
		return out, nil
	}
	return nil, fmt.Errorf("store: %s unreachable: %w", c.addr, lastErr)
}
