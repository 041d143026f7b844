package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func roundTripRequest(t *testing.T, q Request) Request {
	t.Helper()
	payload, err := AppendRequest(nil, &q)
	if err != nil {
		t.Fatalf("encode %v: %v", q.Op, err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := DecodeRequest(got, &out); err != nil {
		t.Fatalf("decode %v: %v", q.Op, err)
	}
	return out
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, ID: 1, Key: 42},
		{Op: OpPut, ID: 2, Key: 42, Val: []byte("ten-hundred")},
		{Op: OpPut, ID: 3, Key: 43, Val: nil}, // empty value round-trips as nil
		{Op: OpDel, ID: 1 << 60, Key: 7},
		{Op: OpScan, ID: 9, Lo: 10, Hi: 50, Limit: 100},
		{Op: OpBatch, ID: 77, Batch: []BatchOp{
			{Kind: OpPut, Key: 1, Value: []byte{10}},
			{Kind: OpPut, Key: 3, Value: bytes.Repeat([]byte{0xAB}, 300)},
			{Kind: OpGet, Key: 1},
			{Kind: OpDel, Key: 2},
		}},
		{Op: OpBatch, ID: 78, Batch: []BatchOp{}},
		{Op: OpSnapScan, ID: 80, Snap: 0, Lo: 1, Hi: 0, Limit: 1},
		{Op: OpSnapScan, ID: 81, Snap: 12, Lo: 100, Hi: 1 << 50, Limit: 4096},
		{Op: OpSnapRelease, ID: 82, Snap: 12},
	}
	for _, q := range cases {
		got := roundTripRequest(t, q)
		if q.Batch == nil {
			q.Batch = []BatchOp{}
		}
		if got.Batch == nil {
			got.Batch = []BatchOp{}
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("%v: round trip mismatch:\n sent %+v\n got  %+v", q.Op, q, got)
		}
	}
}

func roundTripResponse(t *testing.T, r Response) Response {
	t.Helper()
	payload := AppendResponse(nil, &r)
	var out Response
	if err := DecodeResponse(payload, &out); err != nil {
		t.Fatalf("decode %v: %v", r.Op, err)
	}
	return out
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpGet, ID: 1, Found: true, Value: []byte{99}},
		{Op: OpGet, ID: 2, Found: false},
		{Op: OpPut, ID: 3, Found: true, Value: []byte("five")},
		{Op: OpDel, ID: 4, Found: false},
		{Op: OpScan, ID: 5, Pairs: []Pair{{1, []byte{10}}, {2, []byte{20, 21}}}},
		{Op: OpScan, ID: 6, Pairs: []Pair{}},
		{Op: OpBatch, ID: 7, Results: []OpResult{{true, []byte{1}}, {false, nil}}},
		{Op: OpPut, ID: 8, Status: StatusErr, Msg: "key out of range"},
		{Op: OpGet, ID: 9, Status: StatusShutdown},
		{Op: OpSnapScan, ID: 10, Snap: 7, Pairs: []Pair{{1, []byte{10}}, {2, []byte{20}}}},
		{Op: OpSnapScan, ID: 11, Snap: 7, Pairs: []Pair{}},
		{Op: OpSnapRelease, ID: 12, Found: true},
		{Op: OpSnapScan, ID: 13, Status: StatusErr, Msg: "unknown or expired snapshot lease 9"},
	}
	for _, r := range cases {
		got := roundTripResponse(t, r)
		if r.Pairs == nil {
			r.Pairs = []Pair{}
		}
		if got.Pairs == nil {
			got.Pairs = []Pair{}
		}
		if r.Results == nil {
			r.Results = []OpResult{}
		}
		if got.Results == nil {
			got.Results = []OpResult{}
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("%v: round trip mismatch:\n sent %+v\n got  %+v", r.Op, r, got)
		}
	}
}

func TestDecodeRequestReusesBatch(t *testing.T) {
	q := Request{Op: OpBatch, ID: 1, Batch: []BatchOp{{Kind: OpPut, Key: 1, Value: []byte{2}}}}
	payload, err := AppendRequest(nil, &q)
	if err != nil {
		t.Fatal(err)
	}
	// Decode into a request whose Batch already has capacity; the slice
	// must be reused, not appended after stale entries.
	out := Request{Batch: make([]BatchOp, 3, 8)}
	if err := DecodeRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Batch) != 1 || !reflect.DeepEqual(out.Batch[0], q.Batch[0]) {
		t.Fatalf("got batch %+v", out.Batch)
	}
}

func TestMalformedRequests(t *testing.T) {
	good, err := AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: 2, Val: []byte{3}})
	if err != nil {
		t.Fatal(err)
	}
	var q Request
	cases := map[string][]byte{
		"empty":        {},
		"bad opcode":   {0xEE, 0, 0, 0, 0, 0, 0, 0, 1},
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0xFF),
		"batch count":  {byte(OpBatch), 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"batch kind":   {byte(OpBatch), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, byte(OpScan), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2},
		"scan limit":   {byte(OpScan), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF},
		"short header": {byte(OpGet), 1, 2},
	}
	for name, payload := range cases {
		if err := DecodeRequest(payload, &q); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	// A length prefix beyond MaxFrame must be rejected before any
	// payload allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf, nil); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// Truncated frame body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 8, 1, 2, 3})
	if _, err := ReadFrame(&buf, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want ErrUnexpectedEOF", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got := AppendFrame(nil, payload)
	if !bytes.Equal(buf.Bytes(), got) {
		t.Fatalf("AppendFrame %x != WriteFrame %x", got, buf.Bytes())
	}
}

func TestSentinelMatching(t *testing.T) {
	// Response.Err wraps the status's sentinel so clients can match
	// with errors.Is while still seeing the server's message.
	cases := []struct {
		status Status
		want   error
	}{
		{StatusBusy, ErrBusy},
		{StatusShutdown, ErrShutdown},
		{StatusMalformed, ErrMalformed},
		{StatusTooLarge, ErrTooLarge},
	}
	for _, tc := range cases {
		r := Response{Status: tc.status, Msg: "details"}
		err := r.Err()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.status, err, tc.want)
		}
		if !strings.Contains(err.Error(), "details") {
			t.Errorf("%s: message dropped: %v", tc.status, err)
		}
		// Without a message the bare sentinel comes back.
		r.Msg = ""
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: bare Err() does not match sentinel", tc.status)
		}
		// Round-trip: sentinel -> status -> sentinel.
		if got := StatusOf(tc.want); got != tc.status {
			t.Errorf("StatusOf(%v) = %s, want %s", tc.want, got, tc.status)
		}
		if got := StatusOf(fmt.Errorf("wrapped: %w", tc.want)); got != tc.status {
			t.Errorf("StatusOf(wrapped %v) = %s, want %s", tc.want, got, tc.status)
		}
	}
	ok := Response{Status: StatusOK}
	if ok.Err() != nil {
		t.Error("OK response produced an error")
	}
	if StatusOf(nil) != StatusOK {
		t.Error("StatusOf(nil) != StatusOK")
	}
	if StatusOf(errors.New("disk on fire")) != StatusErr {
		t.Error("unrecognized error should map to StatusErr")
	}
	if !errors.Is(ErrFrameTooLarge, ErrTooLarge) {
		t.Error("ErrFrameTooLarge does not match ErrTooLarge")
	}
}

func TestDecodeErrorsWrapSentinels(t *testing.T) {
	var q Request
	// Unknown opcode -> malformed.
	if err := DecodeRequest([]byte{99, 0, 0, 0, 0, 0, 0, 0, 1}, &q); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown opcode: got %v, want ErrMalformed", err)
	}
	// Oversized scan limit -> too large.
	payload, err := AppendRequest(nil, &Request{Op: OpScan, ID: 1, Lo: 0, Hi: 9, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-4] = 0xFF
	payload[len(payload)-3] = 0xFF
	payload[len(payload)-2] = 0xFF
	payload[len(payload)-1] = 0xFF
	if err := DecodeRequest(payload, &q); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized scan limit: got %v, want ErrTooLarge", err)
	}
	// Oversized batch on the encode side -> too large.
	big := &Request{Op: OpBatch, ID: 1, Batch: make([]BatchOp, MaxBatchOps+1)}
	for i := range big.Batch {
		big.Batch[i] = BatchOp{Kind: OpPut, Key: uint64(i), Value: []byte{1}}
	}
	if _, err := AppendRequest(nil, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch encode: got %v, want ErrTooLarge", err)
	}
	// Oversized value on the encode side -> too large, both for a lone
	// PUT and for a batched one.
	fat := make([]byte, MaxValue+1)
	if _, err := AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: 2, Val: fat}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized put encode: got %v, want ErrTooLarge", err)
	}
	bq := &Request{Op: OpBatch, ID: 1, Batch: []BatchOp{{Kind: OpPut, Key: 1, Value: fat}}}
	if _, err := AppendRequest(nil, bq); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch value encode: got %v, want ErrTooLarge", err)
	}
}

// TestFrameCodecAllocatesNothing: framing a payload through a buffered
// writer and reading it back into a reused buffer costs no heap
// allocation. Both ends of a served request pay these once per frame.
func TestFrameCodecAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	bw := bufio.NewWriterSize(io.Discard, 1<<10)
	if a := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteFrame: %.2f allocations per call, want 0", a)
	}

	frame := AppendFrame(nil, payload)
	r := bytes.NewReader(frame)
	buf := make([]byte, 0, 128)
	if a := testing.AllocsPerRun(1000, func() {
		r.Reset(frame)
		got, err := ReadFrame(r, buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("ReadFrame = %d bytes, %v", len(got), err)
		}
	}); a != 0 {
		t.Errorf("ReadFrame: %.2f allocations per call, want 0", a)
	}
}
