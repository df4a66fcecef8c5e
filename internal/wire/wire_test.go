package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"armus/internal/deps"
)

// goldenStatus is a distributed-ID status (site 3) with a negative phaser
// and a phase beyond 32 bits.
var goldenStatus = deps.Blocked{
	Task:     3<<32 + 1,
	WaitsFor: []deps.Resource{{Phaser: 3<<32 + 2, Phase: 1}},
	Regs:     []deps.Reg{{Phaser: 3<<32 + 2, Phase: 0}, {Phaser: -7, Phase: 1 << 40}},
}

// TestAppendBlockedGolden pins the one blocked-status encoding: the bytes
// of a trace block event and of a rejected-verdict status after its kind
// fields, and of every ARMUSD1 snapshot and ARMUSI1 upsert entry.
func TestAppendBlockedGolden(t *testing.T) {
	want := []byte{
		0x82, 0x80, 0x80, 0x80, 0x60, // task 3<<32+1
		0x01,                               // one waits-for resource
		0x84, 0x80, 0x80, 0x80, 0x60, 0x02, // phaser 3<<32+2, phase 1
		0x02,                               // two regs
		0x84, 0x80, 0x80, 0x80, 0x60, 0x00, // phaser 3<<32+2, phase 0
		0x0d, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, // phaser -7, phase 1<<40
	}
	got := AppendBlocked([]byte{0xaa}, &goldenStatus)
	if !bytes.Equal(got, append([]byte{0xaa}, want...)) {
		t.Fatalf("AppendBlocked = % x\nwant   aa % x", got, want)
	}
	c := NewCursor(want)
	var b deps.Blocked
	BlockedInto(&c, &b)
	if err := c.End(); err != nil || !reflect.DeepEqual(b, goldenStatus) {
		t.Fatalf("BlockedInto = %+v, %v", b, err)
	}
}

func TestCursorErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(c *Cursor)
		want error
	}{
		{"truncated varint", []byte{0x80, 0x80}, func(c *Cursor) { c.Varint() }, ErrTruncated},
		{"truncated uvarint", nil, func(c *Cursor) { c.Uvarint() }, ErrTruncated},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(c *Cursor) { c.Varint() }, ErrTruncated},
		{"count over cap", []byte{0x05, 1, 2, 3, 4, 5}, func(c *Cursor) { c.Count(4) }, ErrCount},
		{"count over remaining", []byte{0x05, 1, 2, 3, 4}, func(c *Cursor) { c.Count(MaxCount) }, ErrCount},
		{"value over max", []byte{0x80, 0x02}, func(c *Cursor) { c.UvarintMax(0xff) }, ErrRange},
		{"bad bool", []byte{0x02}, func(c *Cursor) { c.Bool() }, ErrRange},
		{"short bytes", []byte{1, 2}, func(c *Cursor) { c.Bytes(3) }, ErrTruncated},
		{"trailing bytes", []byte{0x01, 0x00}, func(c *Cursor) { c.Uvarint() }, ErrTrailing},
		{"status count over remaining", []byte{0x02, 0x7f}, func(c *Cursor) { BlockedInto(c, &deps.Blocked{}) }, ErrCount},
	} {
		c := NewCursor(tc.in)
		tc.read(&c)
		if err := c.End(); !errors.Is(err, tc.want) {
			t.Errorf("%s: End = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCursorErrorIsSticky: after the first failure every read returns
// zero — in particular every count reads 0, so no decode loop allocates
// past a corrupt byte — and the first error is the one reported.
func TestCursorErrorIsSticky(t *testing.T) {
	// A count of 3 over remaining bytes that would be valid counts and
	// varints if the cursor kept reading.
	c := NewCursor([]byte{0x03, 0x01, 0x02, 0x02, 0x02})
	if n := c.Count(2); n != 0 || !errors.Is(c.Err(), ErrCount) {
		t.Fatalf("Count = %d, %v", n, c.Err())
	}
	c.Fail(ErrRange)
	if c.Uvarint() != 0 || c.Varint() != 0 || c.Byte() != 0 || c.Bool() ||
		c.Count(MaxCount) != 0 || c.Bytes(0) != nil || c.Len() != 0 {
		t.Fatal("a failed cursor kept reading")
	}
	b := deps.Blocked{Task: 9, WaitsFor: make([]deps.Resource, 0, 4)}
	if n := testing.AllocsPerRun(100, func() { BlockedInto(&c, &b) }); n != 0 {
		t.Fatalf("BlockedInto on a failed cursor allocates %v", n)
	}
	if b.Task != 0 || len(b.WaitsFor) != 0 || len(b.Regs) != 0 {
		t.Fatalf("failed cursor decoded %+v", b)
	}
	if !errors.Is(c.End(), ErrCount) {
		t.Fatalf("first error lost: %v", c.End())
	}
}

// TestBlockedIntoReusesCapacity: decoding into a warm status allocates
// nothing, and decoding a shorter status keeps the longer buffers.
func TestBlockedIntoReusesCapacity(t *testing.T) {
	enc := AppendBlocked(nil, &goldenStatus)
	var b deps.Blocked
	c := NewCursor(enc)
	BlockedInto(&c, &b) // warm the buffers
	regs := &b.Regs[:1][0]
	if n := testing.AllocsPerRun(100, func() {
		c = NewCursor(enc)
		BlockedInto(&c, &b)
	}); n != 0 {
		t.Fatalf("warm BlockedInto allocates %v per status", n)
	}
	short := AppendBlocked(nil, &deps.Blocked{Task: 1, Regs: []deps.Reg{{Phaser: 1}}})
	c = NewCursor(short)
	BlockedInto(&c, &b)
	if err := c.End(); err != nil || len(b.Regs) != 1 || &b.Regs[0] != regs {
		t.Fatalf("short status did not reuse the buffers: %+v, %v", b, err)
	}
}

func TestListsRoundTrip(t *testing.T) {
	ts := []deps.TaskID{-1, 0, 3<<32 + 9}
	rs := []deps.Resource{{Phaser: 4, Phase: -2}}
	enc := AppendResources(AppendTasks(nil, ts), rs)
	c := NewCursor(enc)
	gotT := TasksInto(&c, nil)
	gotR := ResourcesInto(&c, nil)
	if err := c.End(); err != nil || !reflect.DeepEqual(gotT, ts) || !reflect.DeepEqual(gotR, rs) {
		t.Fatalf("lists = %v %v, %v", gotT, gotR, err)
	}
	// Empty lists decode to nil when there is no buffer to reuse.
	c = NewCursor(AppendResources(AppendTasks(nil, nil), nil))
	if TasksInto(&c, nil) != nil || ResourcesInto(&c, nil) != nil || c.End() != nil {
		t.Fatal("empty lists did not decode to nil")
	}
}
