package segment

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// sampleIndex is a valid two-block index with verdicts at ords.
func sampleIndex(ords ...int64) *Index {
	return &Index{
		Version: indexVersion, Mode: 1, Seq: 3, Session: "tenant-7",
		CreatedUnixNano: 100, SealedUnixNano: 900,
		Events: 8, FirstUnixNano: 150, LastUnixNano: 850,
		Verdicts: int64(len(ords)), VerdictOrdinals: ords,
		DataStart: 40,
		Blocks: []BlockInfo{
			{CompLen: 30, RawLen: 60, Events: 5, CRC: 0xdeadbeef, FirstUnixNano: 150, LastUnixNano: 400},
			{CompLen: 20, RawLen: 40, Events: 3, CRC: 7, FirstUnixNano: 500, LastUnixNano: 850},
		},
	}
}

// indexSeeds are the named footer payloads of the checked-in seed corpus:
// three valid shapes and the corruptions parseIndex must reject.
func indexSeeds() map[string][]byte {
	good := appendIndex(nil, sampleIndex(1, 4))
	sumMismatch := sampleIndex(1)
	sumMismatch.Events = 9
	return map[string][]byte{
		"valid":               good,
		"no_verdicts":         appendIndex(nil, sampleIndex()),
		"empty":               appendIndex(nil, &Index{Blocks: []BlockInfo{}}),
		"ordinals_descending": appendIndex(nil, sampleIndex(5, 3)),
		"ordinals_repeated":   appendIndex(nil, sampleIndex(4, 4)),
		"ordinal_at_events":   appendIndex(nil, sampleIndex(8)),
		"block_sum_mismatch":  appendIndex(nil, sumMismatch),
		"truncated":           good[:len(good)-3],
		"trailing_byte":       append(append([]byte{}, good...), 0),
		"huge_session_count":  {indexVersion, 1, 3, 0xff, 0xff, 0xff, 0x7f},
	}
}

// FuzzSegmentIndex feeds arbitrary bytes to parseIndex, the decoder of a
// segment's footer (read from files on disk, so untrusted). On every input:
//
//  1. corrupt input never panics and never over-allocates — it returns an
//     error (the segment is quarantined), and
//  2. whatever decodes satisfies the invariants readers rely on: verdict
//     ordinals strictly ascending and below Events, block event counts
//     summing to Events — and re-encodes to a payload that decodes to the
//     same index (decode∘encode is a fixpoint).
//
// The seed corpus under testdata/fuzz/FuzzSegmentIndex holds indexSeeds;
// CI runs a short fuzz-smoke over it on every PR.
func FuzzSegmentIndex(f *testing.F) {
	seeds := indexSeeds()
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := parseIndex(data)
		if err != nil {
			return
		}
		for i, o := range idx.VerdictOrdinals {
			if o < 0 || o >= idx.Events || (i > 0 && o <= idx.VerdictOrdinals[i-1]) {
				t.Fatalf("accepted ordinals %v with %d events", idx.VerdictOrdinals, idx.Events)
			}
		}
		var sum int64
		for _, b := range idx.Blocks {
			sum += b.Events
		}
		if sum != idx.Events {
			t.Fatalf("accepted block event sum %d != %d events", sum, idx.Events)
		}
		idx2, err := parseIndex(appendIndex(nil, idx))
		if err != nil {
			t.Fatalf("re-encoded index rejected: %v", err)
		}
		if !reflect.DeepEqual(idx2, idx) {
			t.Fatalf("fixpoint broken:\n%+v\nvs\n%+v", idx, idx2)
		}
	})
}

// TestParseIndexTable runs parseIndex over every seed: the three valid
// shapes decode, every corruption — non-ascending or out-of-range verdict
// ordinals included — is rejected.
func TestParseIndexTable(t *testing.T) {
	valid := map[string]bool{"valid": true, "no_verdicts": true, "empty": true}
	for name, data := range indexSeeds() {
		idx, err := parseIndex(data)
		if valid[name] != (err == nil) {
			t.Errorf("%s: parseIndex = %+v, %v", name, idx, err)
		}
	}
	if idx, err := parseIndex(indexSeeds()["valid"]); err != nil ||
		!reflect.DeepEqual(idx.VerdictOrdinals, []int64{1, 4}) || idx.Blocks[1].Offset != 70 {
		t.Fatalf("valid index decoded as %+v, %v", idx, err)
	}
}
