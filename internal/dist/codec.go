package dist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"armus/internal/deps"
	"armus/internal/wire"
)

// The snapshot wire format is a hand-rolled varint encoding rather than
// encoding/gob: payloads are written every period by every site, so they
// should be compact, allocation-light, and — because a snapshot may be read
// back by a site running a different build, or after the store returned a
// torn/corrupt value — every length must be validated before it is
// allocated. Both are the codec kernel's job (internal/wire): its bounded
// cursor reads every field, and each entry is the kernel's one blocked
// status encoding, byte for byte what a trace block event carries. The
// same codec also persists fleet session snapshots (internal/server), so
// what a site publishes and what a session persists cannot diverge.
// Layout:
//
// The siteID and seq header fields are diagnostic metadata: seq counts the
// publisher's rounds so an operator inspecting the store can tell a live
// snapshot from a frozen one. The checker itself never ages snapshots out
// by seq — a dead site's tasks stay genuinely blocked, so its last
// snapshot stays valid input (see the package comment).
//
//	magic "ARMUSD1"
//	uvarint siteID
//	uvarint seq
//	uvarint len(snap)
//	per Blocked: status (see internal/wire)
//
// Signed fields use zig-zag varints so distributed ID bases near the top of
// the int64 range still encode compactly enough and negatives round-trip.

// snapshotMagic versions the wire format; bump the trailing digit on any
// incompatible change so mixed-version clusters drop (rather than misparse)
// each other's snapshots.
const snapshotMagic = "ARMUSD1"

// appendSnapshot serialises one site's blocked statuses into buf.
func appendSnapshot(buf []byte, siteID int, seq uint64, snap []deps.Blocked) []byte {
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(snap)))
	for i := range snap {
		buf = wire.AppendBlocked(buf, &snap[i])
	}
	return buf
}

// EncodeSnapshot encodes a full blocked-status snapshot (ARMUSD1). snap
// must be sorted by Task (deps.State.SnapshotInto output is).
func EncodeSnapshot(siteID int, seq uint64, snap []deps.Blocked) []byte {
	return appendSnapshot(make([]byte, 0, len(snapshotMagic)+16+32*len(snap)), siteID, seq, snap)
}

// header opens a cursor on payload past magic and reads the siteID field.
func header(payload []byte, magic string) (wire.Cursor, int) {
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		c := wire.Cursor{}
		c.Fail(errBadMagic)
		return c, 0
	}
	c := wire.NewCursor(payload[len(magic):])
	return c, int(c.Uvarint())
}

var errBadMagic = errors.New("bad magic")

// blockedList decodes a count-prefixed list of blocked statuses, each
// strictly above the previous by Task when ascending is set.
func blockedList(c *wire.Cursor, ascending bool) []deps.Blocked {
	n := c.Count(wire.MaxCount)
	out := make([]deps.Blocked, n)
	for i := range out {
		wire.BlockedInto(c, &out[i])
		if ascending && i > 0 && out[i].Task <= out[i-1].Task {
			c.Fail(errNotAscending)
		}
	}
	return out
}

var errNotAscending = errors.New("entries not ascending")

// DecodeSnapshot parses an ARMUSD1 payload. Any malformation is an error:
// the caller drops the snapshot (counting it) so one corrupt entry can
// never wedge a global check.
func DecodeSnapshot(payload []byte) (siteID int, seq uint64, snap []deps.Blocked, err error) {
	c, siteID := header(payload, snapshotMagic)
	seq = c.Uvarint()
	snap = blockedList(&c, false)
	if err := c.End(); err != nil {
		return 0, 0, nil, fmt.Errorf("dist: snapshot: %w", err)
	}
	return siteID, seq, snap, nil
}

// peekSnapshotSeq reads a snapshot header without decoding the body, so an
// unchanged peer (same seq as the cached view) costs no allocation.
func peekSnapshotSeq(payload []byte) (seq uint64, err error) {
	c, _ := header(payload, snapshotMagic)
	seq = c.Uvarint()
	return seq, c.Err()
}

// --- delta format -----------------------------------------------------
//
// A delta is the CUMULATIVE difference between a site's published base
// snapshot (seq baseSeq) and its current view (seq): tasks removed from
// the base, plus upserted blocked statuses (new or changed). Each site
// stores exactly one base field and one delta field in its hash; the
// delta is overwritten in place every round, so there are no chains to
// replay and any single lost write is healed by the next overwrite — the
// same self-contained-overwrite fault-tolerance story as full snapshots.
//
//	magic "ARMUSI1"
//	uvarint siteID
//	uvarint baseSeq            (base snapshot this delta applies to)
//	uvarint seq                (resulting view; must exceed baseSeq)
//	uvarint len(removed)       then per task: varint TaskID, strictly ascending
//	uvarint len(upserts)       then per Blocked (strictly ascending Task)

// deltaMagic versions the delta wire format (see snapshotMagic).
const deltaMagic = "ARMUSI1"

// appendDelta serialises a cumulative delta against the base snapshot
// into buf.
func appendDelta(buf []byte, siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked) []byte {
	buf = append(buf, deltaMagic...)
	buf = binary.AppendUvarint(buf, uint64(siteID))
	buf = binary.AppendUvarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, seq)
	buf = wire.AppendTasks(buf, removed)
	buf = binary.AppendUvarint(buf, uint64(len(upserts)))
	for i := range upserts {
		buf = wire.AppendBlocked(buf, &upserts[i])
	}
	return buf
}

// EncodeDelta encodes a cumulative delta against the base snapshot with
// sequence baseSeq (ARMUSI1): removed tasks (strictly ascending) and
// upserted statuses (sorted by Task).
func EncodeDelta(siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked) []byte {
	buf := make([]byte, 0, len(deltaMagic)+24+8*len(removed)+32*len(upserts))
	return appendDelta(buf, siteID, baseSeq, seq, removed, upserts)
}

// DecodeDelta parses an ARMUSI1 payload, enforcing the ordering invariants
// (strictly ascending removed tasks and upserts, seq beyond baseSeq) so
// ApplyDelta stays a simple sorted merge. Any malformation is an error:
// the caller falls back to the base snapshot.
func DecodeDelta(payload []byte) (siteID int, baseSeq, seq uint64, removed []deps.TaskID, upserts []deps.Blocked, err error) {
	c, siteID, baseSeq, seq := deltaHeader(payload)
	removed = wire.TasksInto(&c, nil)
	for i := 1; i < len(removed); i++ {
		if removed[i] <= removed[i-1] {
			c.Fail(errNotAscending)
		}
	}
	upserts = blockedList(&c, true)
	if err := c.End(); err != nil {
		return 0, 0, 0, nil, nil, fmt.Errorf("dist: delta: %w", err)
	}
	return siteID, baseSeq, seq, removed, upserts, nil
}

// deltaHeader opens a cursor on a delta payload and reads its header,
// failing the cursor when seq does not advance past baseSeq.
func deltaHeader(payload []byte) (c wire.Cursor, siteID int, baseSeq, seq uint64) {
	c, siteID = header(payload, deltaMagic)
	baseSeq = c.Uvarint()
	seq = c.Uvarint()
	if seq <= baseSeq {
		c.Fail(errSeqNotAdvancing)
	}
	return c, siteID, baseSeq, seq
}

var errSeqNotAdvancing = errors.New("seq not beyond base")

// peekDeltaSeqs reads a delta header without decoding the body.
func peekDeltaSeqs(payload []byte) (baseSeq, seq uint64, err error) {
	c, _, baseSeq, seq := deltaHeader(payload)
	return baseSeq, seq, c.Err()
}

// blockedEqual reports whether two blocked statuses are identical.
func blockedEqual(a, b *deps.Blocked) bool {
	if a.Task != b.Task || len(a.WaitsFor) != len(b.WaitsFor) || len(a.Regs) != len(b.Regs) {
		return false
	}
	for i := range a.WaitsFor {
		if a.WaitsFor[i] != b.WaitsFor[i] {
			return false
		}
	}
	for i := range a.Regs {
		if a.Regs[i] != b.Regs[i] {
			return false
		}
	}
	return true
}

// DiffSnapshots computes the cumulative delta turning base into cur. Both
// inputs must be sorted ascending by Task (deps.State.SnapshotInto and the
// decoder both guarantee it). Results are appended into the caller's
// reusable removed/upserts slices; upsert entries alias cur.
func DiffSnapshots(base, cur []deps.Blocked, removed []deps.TaskID, upserts []deps.Blocked) ([]deps.TaskID, []deps.Blocked) {
	i, j := 0, 0
	for i < len(base) || j < len(cur) {
		switch {
		case i >= len(base) || (j < len(cur) && cur[j].Task < base[i].Task):
			upserts = append(upserts, cur[j])
			j++
		case j >= len(cur) || base[i].Task < cur[j].Task:
			removed = append(removed, base[i].Task)
			i++
		default: // same task
			if !blockedEqual(&base[i], &cur[j]) {
				upserts = append(upserts, cur[j])
			}
			i++
			j++
		}
	}
	return removed, upserts
}

// ApplyDelta merges a decoded delta into a base view, appending the result
// (sorted by Task) into dst. Entries alias base and upserts; callers must
// treat the output as read-only. Removed tasks absent from the base are
// ignored — the delta is cumulative, so re-applying after a base refresh
// is harmless.
func ApplyDelta(dst, base []deps.Blocked, removed []deps.TaskID, upserts []deps.Blocked) []deps.Blocked {
	i, j, k := 0, 0, 0 // base, removed, upserts cursors
	for i < len(base) || k < len(upserts) {
		if k < len(upserts) && (i >= len(base) || upserts[k].Task <= base[i].Task) {
			if i < len(base) && base[i].Task == upserts[k].Task {
				i++
			}
			dst = append(dst, upserts[k])
			k++
			continue
		}
		t := base[i].Task
		for j < len(removed) && removed[j] < t {
			j++
		}
		if j < len(removed) && removed[j] == t {
			i++
			continue
		}
		dst = append(dst, base[i])
		i++
	}
	return dst
}
