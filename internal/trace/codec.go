package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"armus/internal/deps"
	"armus/internal/wire"
)

// The trace wire format is built on the codec kernel in internal/wire:
// hand-rolled varints (compact, allocation-light), every length validated
// before it is allocated, and a version baked into the magic so an
// incompatible change is rejected up front rather than misparsed. Blocked
// statuses use the kernel's one status encoding, the same bytes the
// ARMUSD1/ARMUSI1 snapshot payloads carry. On top of that, traces are
// files that outlive the process that wrote them, so the format is framed
// and integrity-checked:
//
//	magic "ARMUSTR1"
//	header frame:  uvarint len, then
//	    uvarint headerVersion (1)
//	    uvarint mode                      (numeric core.Mode of the recorder)
//	    uvarint len(label), label bytes
//	event frames:  uvarint len (> 0), then
//	    uvarint kind, then per kind:
//	    register: varint task, varint phaser, varint phase, uvarint mode
//	    arrive:   varint task, varint phaser, varint phase
//	    drop:     varint task, varint phaser
//	    block:    status
//	    unblock:  varint task
//	    verdict:  uvarint verdictKind,
//	              status (rejected only),
//	              uvarint len(tasks)     then per task: varint task
//	              uvarint len(resources) then per event: varint phaser, varint phase
//	    where status = varint task,
//	                   uvarint len(waitsFor) then varint phaser, varint phase
//	                   uvarint len(regs)     then varint phaser, varint phase
//	footer: uvarint 0 (end sentinel), then 4 bytes little-endian CRC-32
//	    (IEEE) over every preceding byte, magic through sentinel inclusive
//
// Varint framing lets a reader skip nothing and trust nothing: a frame
// length larger than what remains, an item count larger than the frame, an
// unknown kind, unconsumed frame bytes, a missing sentinel or a CRC
// mismatch are all hard errors — a truncated or bit-rotted corpus file
// fails loudly instead of replaying a silently different execution.
// Signed fields use zig-zag varints so distributed IDs (site offsets near
// the top of the int64 range) round-trip compactly.

// traceMagic versions the wire format; bump the trailing digit on any
// incompatible change.
const traceMagic = "ARMUSTR1"

// headerVersion is the header layout version inside the current magic.
const headerVersion = 1

// maxTraceItems bounds every decoded length (items per list, bytes per
// label or frame) so corrupt input cannot make a reader allocate unbounded
// memory before validation catches it.
const maxTraceItems = 1 << 20

// Writer streams a trace to an io.Writer: header at creation, one framed
// event per WriteEvent, CRC footer at Close. Writes are buffered.
type Writer struct {
	w   *bufio.Writer
	crc uint32
	buf []byte
	// evBuf is the reused event-encoding buffer: a steady stream of
	// same-shaped events (the live wire protocol of internal/server)
	// allocates nothing once it is warm.
	evBuf []byte
	err   error
}

// NewWriter writes the magic and header for a trace with the given label
// and recording mode and returns the event writer.
func NewWriter(w io.Writer, label string, mode uint8) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	// Headroom for the version/mode/length varints: the whole header frame
	// must stay under the reader's frame cap, or we would mint a trace no
	// reader accepts back.
	if len(label) > maxTraceItems-16 {
		return nil, fmt.Errorf("trace: label of %d bytes exceeds limit", len(label))
	}
	hdr := binary.AppendUvarint(nil, headerVersion)
	hdr = binary.AppendUvarint(hdr, uint64(mode))
	hdr = binary.AppendUvarint(hdr, uint64(len(label)))
	hdr = append(hdr, label...)
	if err := tw.writeRaw([]byte(traceMagic)); err != nil {
		return nil, err
	}
	if err := tw.writeFrame(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *Writer) writeRaw(p []byte) error {
	if tw.err != nil {
		return tw.err
	}
	tw.crc = crc32.Update(tw.crc, crc32.IEEETable, p)
	if _, err := tw.w.Write(p); err != nil {
		tw.err = err
	}
	return tw.err
}

func (tw *Writer) writeFrame(payload []byte) error {
	// Enforce the reader's frame cap at write time: an oversized event
	// must fail the recording, not mint a permanent artifact that every
	// future decode rejects.
	if len(payload) > maxTraceItems {
		if tw.err == nil {
			tw.err = fmt.Errorf("trace: frame of %d bytes exceeds limit", len(payload))
		}
		return tw.err
	}
	tw.buf = binary.AppendUvarint(tw.buf[:0], uint64(len(payload)))
	if err := tw.writeRaw(tw.buf); err != nil {
		return err
	}
	return tw.writeRaw(payload)
}

// WriteEvent appends one framed event. The encoding buffer is owned by the
// writer and reused across calls.
func (tw *Writer) WriteEvent(e Event) error {
	payload, err := appendEvent(tw.evBuf[:0], e)
	if payload != nil {
		tw.evBuf = payload[:0]
	}
	if err != nil {
		if tw.err == nil {
			tw.err = err
		}
		return err
	}
	return tw.writeFrame(payload)
}

// AppendEventFrame appends the full wire framing of e — uvarint length
// prefix plus payload, exactly the bytes WriteEvent would emit — to buf and
// returns the extended slice. It is the building block of the server-side
// segment tee (internal/segment): frames accumulated this way are
// self-contained copies, safe to hand to another goroutine, and a run of
// them is byte-compatible with the event region of a trace stream, so
// WriteRawFrames can splice them back into a valid trace.
func AppendEventFrame(buf []byte, e Event) ([]byte, error) {
	start := len(buf)
	payload, err := appendEvent(buf, e)
	if err != nil {
		return buf[:start], err
	}
	n := len(payload) - start
	if n > maxTraceItems {
		return buf[:start], fmt.Errorf("trace: frame of %d bytes exceeds limit", n)
	}
	var pfx [binary.MaxVarintLen64]byte
	pl := binary.PutUvarint(pfx[:], uint64(n))
	// Grow by the prefix length, then shift the payload right to make room
	// for the prefix in front of it (copy is memmove-safe).
	payload = append(payload, pfx[:pl]...)
	copy(payload[start+pl:], payload[start:start+n])
	copy(payload[start:], pfx[:pl])
	return payload, nil
}

// NextFrame splits a run of AppendEventFrame-encoded frames into the first
// event payload and the remaining frames. Malformed framing (bad prefix,
// zero or over-limit length, short buffer) is an error.
func NextFrame(frames []byte) (payload, rest []byte, err error) {
	c := wire.NewCursor(frames)
	if n := c.UvarintMax(maxTraceItems); n == 0 {
		c.Fail(wire.ErrRange)
	} else {
		payload = c.Bytes(int(n))
	}
	if err := c.Err(); err != nil {
		return nil, nil, fmt.Errorf("trace: frame: %w", err)
	}
	return payload, frames[len(frames)-c.Len():], nil
}

// DecodeFramePayload decodes one event payload (the bytes NextFrame yields)
// into e, reusing e's slice capacity exactly like Reader.NextInto.
func DecodeFramePayload(payload []byte, e *Event) error {
	return decodeEventInto(payload, e)
}

// WriteRawFrames appends a run of already-framed events (as produced by
// AppendEventFrame, or a decompressed segment block) to the trace verbatim,
// after validating the framing. It is how armus-trace export stitches
// archived segments back into a single valid trace without re-encoding
// every event.
func (tw *Writer) WriteRawFrames(frames []byte) error {
	if tw.err != nil {
		return tw.err
	}
	for rest := frames; len(rest) > 0; {
		var err error
		if _, rest, err = NextFrame(rest); err != nil {
			tw.err = err
			return err
		}
	}
	return tw.writeRaw(frames)
}

// Flush forces any buffered frames through to the underlying writer without
// closing the stream. Live streams (the armus-serve wire protocol) flush
// after each batch so the peer observes events promptly; file writers can
// ignore it (Close flushes).
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = err
	}
	return tw.err
}

// Close writes the end sentinel and the CRC footer and flushes. It does
// not close the underlying writer.
func (tw *Writer) Close() error {
	if err := tw.writeRaw([]byte{0}); err != nil { // uvarint 0 sentinel
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], tw.crc)
	if tw.err == nil {
		if _, err := tw.w.Write(foot[:]); err != nil {
			tw.err = err
		}
	}
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

func appendEvent(buf []byte, e Event) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(e.Kind))
	switch e.Kind {
	case KindRegister:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
		buf = binary.AppendVarint(buf, e.Phase)
		buf = binary.AppendUvarint(buf, uint64(e.Mode))
	case KindArrive:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
		buf = binary.AppendVarint(buf, e.Phase)
	case KindDrop:
		buf = binary.AppendVarint(buf, int64(e.Task))
		buf = binary.AppendVarint(buf, int64(e.Phaser))
	case KindBlock:
		buf = wire.AppendBlocked(buf, &e.Status)
	case KindUnblock:
		buf = binary.AppendVarint(buf, int64(e.Task))
	case KindVerdict:
		buf = binary.AppendUvarint(buf, uint64(e.Verdict))
		switch e.Verdict {
		case VerdictRejected:
			buf = wire.AppendBlocked(buf, &e.Status)
		case VerdictReported:
		default:
			return nil, fmt.Errorf("trace: cannot encode verdict kind %d", e.Verdict)
		}
		buf = wire.AppendTasks(buf, e.Tasks)
		buf = wire.AppendResources(buf, e.Resources)
	default:
		return nil, fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}
	return buf, nil
}

// Reader streams a trace from an io.Reader, validating framing as it goes
// and the CRC footer at the end. Next returns io.EOF exactly once the
// whole trace has been read and verified.
type Reader struct {
	r     *bufio.Reader
	crc   uint32
	label string
	mode  uint8
	done  bool
	err   error
	// frameBuf is the reused frame buffer of NextInto (Next still returns
	// freshly allocated events, which decode from their own frames).
	frameBuf []byte
	// crcByte is readByte's reusable CRC-update window (a fresh one-byte
	// slice per byte read would put an allocation on the streaming path).
	crcByte [1]byte
}

// NewReader checks the magic, reads the header, and returns the event
// reader.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReader(r)}
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(tr.r, magic); err != nil {
		return nil, fmt.Errorf("trace: short magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	tr.crc = crc32.Update(tr.crc, crc32.IEEETable, magic)
	hdr, err := tr.readFrame()
	if err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("trace: missing header frame")
	}
	c := wire.NewCursor(hdr)
	if ver := c.Uvarint(); ver != headerVersion && c.Err() == nil {
		return nil, fmt.Errorf("trace: unsupported header version %d", ver)
	}
	tr.mode = uint8(c.UvarintMax(0xff))
	tr.label = string(c.Bytes(c.Count(maxTraceItems)))
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	return tr, nil
}

// Label returns the header label.
func (tr *Reader) Label() string { return tr.label }

// Mode returns the numeric core.Mode of the recording verifier.
func (tr *Reader) Mode() uint8 { return tr.mode }

// readByte reads one byte, feeding the running CRC.
func (tr *Reader) readByte() (byte, error) {
	b, err := tr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("trace: truncated: %w", err)
	}
	tr.crcByte[0] = b
	tr.crc = crc32.Update(tr.crc, crc32.IEEETable, tr.crcByte[:])
	return b, nil
}

func (tr *Reader) readUvarint() (uint64, error) {
	var v uint64
	for shift := 0; ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("trace: uvarint overflow")
		}
		b, err := tr.readByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

// readFrame reads one length-prefixed frame; it returns (nil, nil) at the
// end sentinel, after verifying the CRC footer and that nothing trails it.
func (tr *Reader) readFrame() ([]byte, error) {
	return tr.readFrameBuf(nil)
}

// readFrameBuf is readFrame reading into buf when it has the capacity (the
// zero-allocation NextInto path hands it the reader-owned buffer).
func (tr *Reader) readFrameBuf(buf []byte) ([]byte, error) {
	n, err := tr.readUvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// End sentinel: the CRC footer covers everything read so far
		// (sentinel included) and must be the final bytes of the stream.
		want := tr.crc
		var foot [4]byte
		if _, err := io.ReadFull(tr.r, foot[:]); err != nil {
			return nil, fmt.Errorf("trace: short CRC footer: %w", err)
		}
		if got := binary.LittleEndian.Uint32(foot[:]); got != want {
			return nil, fmt.Errorf("trace: CRC mismatch: footer %08x, computed %08x", got, want)
		}
		// Only an actual extra byte is trailing garbage. Any read ERROR
		// here is irrelevant: the trace is complete and CRC-verified, and
		// a live transport (armus-serve) may well deliver a reset instead
		// of a tidy EOF right after the footer.
		if b, err := tr.r.ReadByte(); err == nil {
			return nil, fmt.Errorf("trace: trailing byte 0x%02x after CRC footer", b)
		}
		return nil, nil
	}
	if n > maxTraceItems {
		return nil, fmt.Errorf("trace: frame of %d bytes exceeds limit", n)
	}
	var frame []byte
	if uint64(cap(buf)) >= n {
		frame = buf[:n]
	} else {
		frame = make([]byte, n)
	}
	if _, err := io.ReadFull(tr.r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: truncated: %w", err)
	}
	tr.crc = crc32.Update(tr.crc, crc32.IEEETable, frame)
	return frame, nil
}

// Next returns the next event. It returns io.EOF after the final event,
// once the end sentinel and CRC footer have been verified.
func (tr *Reader) Next() (Event, error) {
	if tr.err != nil {
		return Event{}, tr.err
	}
	if tr.done {
		return Event{}, io.EOF
	}
	frame, err := tr.readFrame()
	if err != nil {
		tr.err = err
		return Event{}, err
	}
	if frame == nil {
		tr.done = true
		return Event{}, io.EOF
	}
	e, err := decodeEvent(frame)
	if err != nil {
		tr.err = err
		return Event{}, err
	}
	return e, nil
}

// NextInto is Next decoding into e, reusing both the reader's frame buffer
// and e's slice capacity: the armus-serve ingest loop runs it per event
// with zero steady-state allocations. The decoded event aliases e's
// storage, which the NEXT NextInto call overwrites — callers that keep an
// event must copy it first.
func (tr *Reader) NextInto(e *Event) error {
	if tr.err != nil {
		return tr.err
	}
	if tr.done {
		return io.EOF
	}
	frame, err := tr.readFrameBuf(tr.frameBuf)
	if err != nil {
		tr.err = err
		return err
	}
	if frame == nil {
		tr.done = true
		return io.EOF
	}
	if cap(frame) > cap(tr.frameBuf) {
		tr.frameBuf = frame[:0]
	}
	if err := decodeEventInto(frame, e); err != nil {
		tr.err = err
		return err
	}
	return nil
}

// Buffered reports how many undecoded bytes sit in the reader's buffer —
// the live ingest loop uses it to batch greedily (keep decoding while more
// frames are already in memory) without ever blocking mid-batch.
func (tr *Reader) Buffered() int { return tr.r.Buffered() }

func decodeEvent(frame []byte) (Event, error) {
	var e Event
	if err := decodeEventInto(frame, &e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// resetEvent zeroes e while keeping its slice storage for reuse.
func resetEvent(e *Event) {
	w, g := e.Status.WaitsFor[:0], e.Status.Regs[:0]
	ts, rs := e.Tasks[:0], e.Resources[:0]
	*e = Event{}
	e.Status.WaitsFor, e.Status.Regs = w, g
	e.Tasks, e.Resources = ts, rs
}

// decodeEventInto decodes one event frame into e, reusing e's slice
// capacity: a caller feeding a steady stream of same-shaped events through
// the same Event (the armus-serve ingest loop) allocates nothing once the
// buffers are warm. On error e is left in an unspecified (but safely
// reusable) state.
func decodeEventInto(frame []byte, e *Event) error {
	c := wire.NewCursor(frame)
	resetEvent(e)
	e.Kind = Kind(c.Uvarint())
	switch e.Kind {
	case KindRegister:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
		e.Phase = c.Varint()
		e.Mode = uint8(c.UvarintMax(0xff))
	case KindArrive:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
		e.Phase = c.Varint()
	case KindDrop:
		e.Task = deps.TaskID(c.Varint())
		e.Phaser = deps.PhaserID(c.Varint())
	case KindBlock:
		wire.BlockedInto(&c, &e.Status)
		e.Task = e.Status.Task
	case KindUnblock:
		e.Task = deps.TaskID(c.Varint())
	case KindVerdict:
		e.Verdict = VerdictKind(c.Uvarint())
		switch e.Verdict {
		case VerdictRejected:
			wire.BlockedInto(&c, &e.Status)
			e.Task = e.Status.Task
		case VerdictReported:
		default:
			c.Fail(fmt.Errorf("unknown verdict kind %d", e.Verdict))
		}
		e.Tasks = wire.TasksInto(&c, e.Tasks)
		e.Resources = wire.ResourcesInto(&c, e.Resources)
	default:
		c.Fail(fmt.Errorf("unknown event kind %d", e.Kind))
	}
	if err := c.End(); err != nil {
		return fmt.Errorf("trace: %v frame: %w", e.Kind, err)
	}
	return nil
}

// Encode writes the whole trace to w: header, every event, CRC footer.
func Encode(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w, t.Label, t.Mode)
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := tw.WriteEvent(e); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Decode parses a complete encoded trace, validating framing and CRC. Any
// malformation is an error.
func Decode(data []byte) (*Trace, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t := &Trace{Label: r.Label(), Mode: r.Mode()}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
}

// WriteFile encodes the trace to path (0644, truncating).
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t := &Trace{Label: r.Label(), Mode: r.Mode()}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		t.Events = append(t.Events, e)
	}
}
