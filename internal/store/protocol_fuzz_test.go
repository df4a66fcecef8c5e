package store

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// cmdBytes encodes one client command in wire format, for building fuzz
// seed streams.
func cmdBytes(args ...string) []byte {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	writeHeader(w, '*', len(args))
	for _, a := range args {
		writeBulkString(w, a)
	}
	w.Flush()
	return out.Bytes()
}

// FuzzStoreProtocol feeds arbitrary bytes to the server's command reader
// and dispatcher — the exact code path a connection exercises, covering
// every command including the batched MGETP and HLEN. The seeds naming
// commands the store does not serve (SET, GET, HGET, HDEL, KEYS) exercise
// the unknown-command reply. Two properties:
//
//  1. the server never panics, however malformed the stream, and
//  2. every byte the server emits parses as a well-formed reply stream
//     through the client's own reply reader (protocol self-consistency:
//     whatever the server says, a pipelining client can match replies to
//     commands in order).
func FuzzStoreProtocol(f *testing.F) {
	var all []byte
	for _, c := range [][]string{
		{"PING"},
		{"SET", "armus:site:1", "v1"},
		{"GET", "armus:site:1"},
		{"HSET", "armus:site:2", "base", "payload"},
		{"HSET", "armus:site:2", "delta", "payload2"},
		{"HLEN", "armus:site:2"},
		{"MGETP", "armus:site:"},
		{"HGETALL", "armus:site:2"},
		{"HGET", "armus:site:2", "base"},
		{"HDEL", "armus:site:2", "delta"},
		{"KEYS", "armus:"},
		{"DEL", "armus:site:1", "armus:site:2"},
		{"GET", "missing"},
		{"mgetp", "armus:"}, // lowercase goes through the ToUpper fallback
		{"BOGUS", "x"},
		{"SET"}, // arity error
	} {
		b := cmdBytes(c...)
		f.Add(b)
		all = append(all, b...)
	}
	f.Add(all)                                   // the whole lot as one pipelined batch
	f.Add(all[:len(all)-3])                      // truncated mid-command
	f.Add([]byte("*1\r\n$4\r\nPING\r\njunk"))    // valid then garbage
	f.Add([]byte("*-1\r\n"))                     // negative array length
	f.Add([]byte("*1\r\n$99999999999\r\nx\r\n")) // huge bulk length

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{hashes: make(map[string]map[string][]byte)}
		r := bufio.NewReader(bytes.NewReader(data))
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		for {
			args, err := readArray(r)
			if err != nil {
				break
			}
			if err := s.dispatch(w, args); err != nil {
				break
			}
		}
		w.Flush()

		// The server speaks only complete replies: the client-side reply
		// reader must consume the whole output without a protocol error.
		c := &Client{r: bufio.NewReader(bytes.NewReader(out.Bytes()))}
		for {
			_, err := c.readReplyLocked()
			if err == nil || errors.Is(err, ErrNil) || errors.Is(err, ErrServerError) {
				continue
			}
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("server output does not parse as replies: %v\nreplies: %q", err, out.Bytes())
		}
	})
}
