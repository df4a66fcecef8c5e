package proto

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"armus/internal/deps"
)

func TestLabelRoundTrip(t *testing.T) {
	for _, h := range []Handshake{
		{Session: "app"},
		{Session: "tenant-7.shard_2", Subscribe: true},
	} {
		got, err := ParseLabel(h.Label())
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestParseLabelRejects(t *testing.T) {
	for _, label := range []string{
		"",
		"harness: npb CG (8 tasks, class 2, avoid)", // a recorded trace, not a handshake
		"armus-serve/1",                // no session
		"armus-serve/1 sess=",          // empty session
		"armus-serve/1 sess=has space", // invalid name (splits into a bogus field)
		"armus-serve/9 sess=x",         // future protocol version
		"armus-serve/1 noequals",
	} {
		if _, err := ParseLabel(label); err == nil {
			t.Fatalf("ParseLabel(%q) accepted", label)
		}
	}
}

func TestValidSession(t *testing.T) {
	if !ValidSession("a.b_c-9") || ValidSession("") || ValidSession("a b") ||
		ValidSession(strings.Repeat("x", MaxSessionName+1)) {
		t.Fatal("ValidSession misclassifies")
	}
}

// sampleResponses is one response of every shape the server sends.
func sampleResponses() []Response {
	cycleT := []deps.TaskID{3, 9}
	cycleR := []deps.Resource{{Phaser: 1, Phase: 4}, {Phaser: 2, Phase: -7}}
	return []Response{
		{Kind: RespHello, Mode: 2, Resumed: true},
		{Kind: RespHello, Mode: 1},
		{Kind: RespGate, Task: 42, Allowed: true},
		{Kind: RespGate, Task: -9e15, Allowed: false, Tasks: cycleT, Resources: cycleR},
		{Kind: RespVerdict, Seq: 1, Deadlocked: false},
		{Kind: RespVerdict, Seq: 1 << 40, Deadlocked: true},
		{Kind: RespReport, Tasks: cycleT, Resources: cycleR},
		{Kind: RespGoodbye, Code: ByeDrain, Msg: "server draining"},
		{Kind: RespGoodbye, Code: ByeMalformed},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := sampleResponses()
	var buf []byte
	var stream bytes.Buffer
	for i := range cases {
		b, err := AppendResponse(buf[:0], &cases[i])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		buf = b
		stream.Write(b)
	}
	br := bufio.NewReader(&stream)
	var r Response
	for i := range cases {
		if err := ReadResponse(br, &r); err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		got, want := normResponse(&r), cases[i]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

func TestReadResponseRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		{0x00},                               // zero-length frame
		{0x03, 0x63, 0x00, 0x00},             // unknown kind 99
		{0x02, 0x02, 0x05},                   // gate frame truncated
		{0x05, 0x02, 0x05, 0x01, 0x00, 0x00}, // trailing bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},                    // length overflows
		append([]byte{0x85, 0x02, 0x05, 0x01, 0x81, 0x02}, strings.Repeat("x", 257)...), // goodbye message over its cap
	} {
		var r Response
		if err := ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &r); err == nil {
			t.Fatalf("garbage % x accepted as %+v", raw, r)
		}
	}
}
