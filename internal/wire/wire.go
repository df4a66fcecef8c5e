// Package wire is the codec kernel under every binary format in the repo:
// the trace stream (internal/trace), the armus-serve response frames
// (internal/server/proto), the ARMUSD1/ARMUSI1 snapshot payloads
// (internal/dist) and the segment footer index (internal/segment).
//
// It holds two things. Cursor is the one bounded decoder: zig-zag and
// unsigned varints, bytes, bools and item counts, with every count checked
// against a cap and against the bytes that remain BEFORE the caller
// allocates for it (every encoded item costs at least one byte, so a count
// larger than the remainder is corrupt). AppendBlocked / BlockedInto are
// the one encoding of a blocked status (Def. 4.1), shared by trace block
// and rejected-verdict events and by snapshot and delta entries:
//
//	status = varint task,
//	         uvarint len(waitsFor) then per resource: varint phaser, varint phase
//	         uvarint len(regs)     then per reg:      varint phaser, varint phase
//
// The cursor's error is sticky: the first failure is kept, the buffer is
// dropped, and every later read returns zero — so a later count reads 0
// and no decode loop allocates past a corrupt byte. Decoders therefore
// read their fields straight through and check Err (or End) once. Errors
// are sentinels, so a cursor never allocates; each format wraps them once
// with its own prefix at its decode entry point.
package wire

import (
	"encoding/binary"
	"errors"
	"slices"

	"armus/internal/deps"
)

// MaxCount caps every item count inside a blocked status or a cycle list.
const MaxCount = 1 << 20

// Sentinel decode errors.
var (
	ErrTruncated = errors.New("truncated")
	ErrCount     = errors.New("count exceeds limit")
	ErrRange     = errors.New("value out of range")
	ErrTrailing  = errors.New("trailing bytes")
)

// Cursor is a bounds-checked decode cursor with a sticky error. The zero
// value is an empty cursor; build one over a payload with NewCursor.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{buf: b} }

// Err returns the first error the cursor met, or nil.
func (c *Cursor) Err() error { return c.err }

// End returns Err, or ErrTrailing when bytes remain unread: a decoder
// calls it once after its last field.
func (c *Cursor) End() error {
	if c.err == nil && len(c.buf) != 0 {
		return ErrTrailing
	}
	return c.err
}

// Len reports how many unread bytes remain.
func (c *Cursor) Len() int { return len(c.buf) }

// Fail records err as the cursor's error unless one is already set, and
// stops further reads. Decoders use it for semantic checks (an unknown
// kind, a non-ascending list) so those share the one error path.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf = nil
}

// Uvarint reads an unsigned varint. One-byte values (most counts, kinds
// and small IDs) skip the general decoder: the trace ingest path decodes
// every field through here.
func (c *Cursor) Uvarint() uint64 {
	if b := c.buf; len(b) > 0 && b[0] < 0x80 {
		c.buf = b[1:]
		return uint64(b[0])
	}
	return c.uvarintSlow()
}

func (c *Cursor) uvarintSlow() uint64 {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.Fail(ErrTruncated)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// UvarintMax reads an unsigned varint that must not exceed max.
func (c *Cursor) UvarintMax(max uint64) uint64 {
	v := c.Uvarint()
	if v > max {
		c.Fail(ErrRange)
		return 0
	}
	return v
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if len(c.buf) == 0 {
		c.Fail(ErrTruncated)
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	b := c.Byte()
	if b > 1 {
		c.Fail(ErrRange)
	}
	return b == 1
}

// Count reads an item count, rejecting one above max or above the bytes
// that remain before the caller allocates anything for it.
func (c *Cursor) Count(max int) int {
	v := c.Uvarint()
	if v > uint64(max) || v > uint64(len(c.buf)) {
		c.Fail(ErrCount)
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes, aliasing the cursor's buffer.
func (c *Cursor) Bytes(n int) []byte {
	if n > len(c.buf) {
		c.Fail(ErrTruncated)
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// AppendTasks appends a count-prefixed task list.
func AppendTasks(buf []byte, ts []deps.TaskID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = binary.AppendVarint(buf, int64(t))
	}
	return buf
}

// TasksInto decodes a task list into dst[:0], reusing its capacity.
func TasksInto(c *Cursor, dst []deps.TaskID) []deps.TaskID {
	n := c.Count(MaxCount)
	dst = slices.Grow(dst[:0], n)
	for range n {
		dst = append(dst, deps.TaskID(c.Varint()))
	}
	return dst
}

// AppendResources appends a count-prefixed (phaser, phase) list.
func AppendResources(buf []byte, rs []deps.Resource) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	return buf
}

// ResourcesInto decodes a resource list into dst[:0], reusing its
// capacity.
func ResourcesInto(c *Cursor, dst []deps.Resource) []deps.Resource {
	n := c.Count(MaxCount)
	dst = slices.Grow(dst[:0], n)
	for range n {
		q := c.Varint()
		ph := c.Varint()
		dst = append(dst, deps.Resource{Phaser: deps.PhaserID(q), Phase: ph})
	}
	return dst
}

// AppendBlocked appends the encoding of one blocked status.
func AppendBlocked(buf []byte, b *deps.Blocked) []byte {
	buf = binary.AppendVarint(buf, int64(b.Task))
	buf = AppendResources(buf, b.WaitsFor)
	buf = binary.AppendUvarint(buf, uint64(len(b.Regs)))
	for _, r := range b.Regs {
		buf = binary.AppendVarint(buf, int64(r.Phaser))
		buf = binary.AppendVarint(buf, r.Phase)
	}
	return buf
}

// BlockedInto decodes one blocked status into b, reusing the capacity of
// b's slices: a warm status decodes with no allocation.
func BlockedInto(c *Cursor, b *deps.Blocked) {
	b.Task = deps.TaskID(c.Varint())
	b.WaitsFor = ResourcesInto(c, b.WaitsFor)
	n := c.Count(MaxCount)
	b.Regs = slices.Grow(b.Regs[:0], n)
	for range n {
		q := c.Varint()
		ph := c.Varint()
		b.Regs = append(b.Regs, deps.Reg{Phaser: deps.PhaserID(q), Phase: ph})
	}
}
