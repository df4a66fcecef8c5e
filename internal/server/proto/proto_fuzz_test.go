package proto

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// normResponse copies r without its read buffer and with empty cycle
// slices as nil, so a reused decode target compares equal to a fresh one.
func normResponse(r *Response) Response {
	c := *r
	c.buf = nil
	if len(c.Tasks) == 0 {
		c.Tasks = nil
	}
	if len(c.Resources) == 0 {
		c.Resources = nil
	}
	return c
}

// FuzzResponseCodec feeds arbitrary bytes to ReadResponse, the SDK's read
// loop over server frames. Two properties must hold on every input:
//
//  1. corrupt input never panics and never over-allocates — ReadResponse
//     returns an error, and
//  2. every frame it accepts re-encodes through AppendResponse to a frame
//     that decodes to an equal Response (decode∘encode is a fixpoint; byte
//     equality is NOT required because varints accept non-minimal forms).
//
// The seed corpus under testdata/fuzz/FuzzResponseCodec holds a stream of
// every response shape plus the corrupt frames TestReadResponseRejectsGarbage
// enumerates; CI runs a short fuzz-smoke over it on every PR.
func FuzzResponseCodec(f *testing.F) {
	var stream []byte
	for _, r := range sampleResponses() {
		b, err := AppendResponse(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-2])                     // truncated mid-frame
	f.Add([]byte{0x00})                               // zero-length frame
	f.Add([]byte{0x03, 0x63, 0x00, 0x00})             // unknown kind
	f.Add([]byte{0x04, 0x05, 0x01, 0x7f, 0x01})       // goodbye message longer than its frame
	f.Add([]byte{0x06, 0x02, 0x02, 0x00, 0x7f, 0x7f}) // refused gate with a huge cycle count

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var r, r2 Response
		for ReadResponse(br, &r) == nil {
			want := normResponse(&r)
			frame, err := AppendResponse(nil, &r)
			if err != nil {
				t.Fatalf("accepted %+v failed to re-encode: %v", want, err)
			}
			if err := ReadResponse(bufio.NewReader(bytes.NewReader(frame)), &r2); err != nil {
				t.Fatalf("re-encoded %+v rejected: %v", want, err)
			}
			if got := normResponse(&r2); !reflect.DeepEqual(got, want) {
				t.Fatalf("fixpoint broken:\ngot  %+v\nwant %+v", got, want)
			}
		}
	})
}
