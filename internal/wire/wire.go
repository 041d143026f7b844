// Package wire defines the length-prefixed binary protocol spoken
// between upsl-server and its clients.
//
// Every message is a frame: a 4-byte big-endian payload length followed
// by that many payload bytes. Requests and responses share the framing;
// direction decides which decoder applies. Payloads are fixed-layout
// big-endian fields — no varints, no reflection — so encode/decode are
// allocation-light and a frame can be sized exactly in advance.
//
// Request payload:
//
//	opcode  uint8
//	id      uint64   client-chosen request ID, echoed in the response
//	...     per-opcode fields (see below)
//
// Response payload:
//
//	opcode  uint8    echo of the request opcode
//	status  uint8    OK or an error code
//	id      uint64   echo of the request ID
//	...     per-opcode fields (status OK), or a UTF-8 message
//	        (uint16 length + bytes) otherwise
//
// Request IDs exist for pipelining: a client may have many requests in
// flight on one connection, and the server may interleave responses of
// different requests (responses to one request are never split). IDs are
// opaque to the server; clients typically assign them from a counter.
//
// Protocol version 2 (this revision) carries values as length-prefixed
// byte strings (uint32 length + bytes) everywhere a version-1 frame
// carried a fixed uint64 value: PUT requests, batch PUT ops, and the
// value fields of GET/PUT/DEL/SCAN/SNAP_SCAN/BATCH responses. The two
// versions are not wire-compatible; a version-1 peer misparses every
// value-bearing frame, so deployments must upgrade server and clients
// together.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode selects the operation of a request frame.
type Opcode uint8

// ProtocolVersion identifies the frame layout this package speaks.
// Version 2 introduced variable-size byte values (see the package doc);
// version 1 carried fixed uint64 values.
const ProtocolVersion = 2

// Protocol opcodes.
const (
	OpGet   Opcode = 1 // key -> (found, value)
	OpPut   Opcode = 2 // key, value -> (existed, old value)
	OpDel   Opcode = 3 // key -> (found, old value)
	OpScan  Opcode = 4 // [lo, hi] inclusive, limit -> pairs
	OpBatch Opcode = 5 // ops -> per-op results, group-committed

	// OpSnapScan pages through a frozen MVCC snapshot. Snap = 0 opens a
	// new server-side snapshot lease and returns its id with the first
	// page; Snap != 0 continues an existing lease (touching it renews the
	// TTL). A page is [lo, hi] inclusive capped at limit pairs; the client
	// resumes from last key + 1 until a short page arrives.
	OpSnapScan Opcode = 6 // snap, [lo, hi], limit -> snap id, pairs

	// OpSnapRelease drops a snapshot lease, unpinning its era so
	// reclamation can advance. Leases also expire on their own after the
	// server's TTL, so a crashed client cannot pin reclaim forever.
	OpSnapRelease Opcode = 7 // snap -> released?
)

func (o Opcode) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpBatch:
		return "BATCH"
	case OpSnapScan:
		return "SNAP_SCAN"
	case OpSnapRelease:
		return "SNAP_RELEASE"
	default:
		return fmt.Sprintf("opcode(%d)", uint8(o))
	}
}

// Status is the result code of a response frame.
type Status uint8

// Response status codes.
const (
	StatusOK        Status = 0
	StatusErr       Status = 1 // operation error (e.g. key out of range)
	StatusBusy      Status = 2 // connection limit reached; retry later
	StatusShutdown  Status = 3 // server is draining; no new requests
	StatusMalformed Status = 4 // request frame could not be decoded
	StatusTooLarge  Status = 5 // frame, batch or scan exceeds protocol bounds
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusErr:
		return "ERR"
	case StatusBusy:
		return "BUSY"
	case StatusShutdown:
		return "SHUTDOWN"
	case StatusMalformed:
		return "MALFORMED"
	case StatusTooLarge:
		return "TOO_LARGE"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// MaxFrame bounds the payload of a single frame (requests and
// responses). It caps BATCH sizes and SCAN results; the server rejects
// longer request frames without reading them, so a garbage length prefix
// cannot make it allocate unboundedly.
const MaxFrame = 1 << 20

// MaxBatchOps is the largest op count a BATCH request may carry. Since
// values are variable-size, MaxFrame is the binding bound for batches of
// large values; this caps the op count alone.
const MaxBatchOps = 4096

// MaxScanLimit is the largest pair count a SCAN may request; as with
// batches, MaxFrame bounds the response bytes.
const MaxScanLimit = 4096

// MaxValue bounds a single value's byte length on the wire. It equals
// the engine's MaxValueLen; servers may impose a lower bound via their
// -max-value flag (rejected with StatusTooLarge).
const MaxValue = 1 << 20

// Sentinel errors. Clients match on these with errors.Is instead of
// sniffing status codes or message strings: every non-OK response the
// client surfaces, and every decode failure, wraps exactly one of them.
// The server maps internal failures onto the matching status code
// (Status.Err is the status→sentinel direction).
var (
	// ErrBusy: the server's connection limit is reached; retry later,
	// ideally against another replica or after backoff.
	ErrBusy = errors.New("wire: server busy")
	// ErrShutdown: the server is draining and accepts no new requests.
	ErrShutdown = errors.New("wire: server shutting down")
	// ErrMalformed: a payload could not be decoded (truncated fields,
	// unknown opcode, trailing garbage).
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrTooLarge: a frame, batch or scan exceeds the protocol bounds
	// (MaxFrame, MaxBatchOps, MaxScanLimit).
	ErrTooLarge = errors.New("wire: message exceeds protocol bounds")

	// ErrFrameTooLarge is the framing-layer instance of ErrTooLarge,
	// kept as its own name for ReadFrame/WriteFrame callers; it matches
	// errors.Is(err, ErrTooLarge).
	ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds MaxFrame", ErrTooLarge)
)

// Err converts a status into its sentinel error: nil for StatusOK, the
// matching sentinel for protocol-level rejections, and a plain error
// for StatusErr (an operation error carries its meaning in the response
// message, not the status).
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusBusy:
		return ErrBusy
	case StatusShutdown:
		return ErrShutdown
	case StatusMalformed:
		return ErrMalformed
	case StatusTooLarge:
		return ErrTooLarge
	default:
		return fmt.Errorf("wire: %s", s)
	}
}

// StatusOf maps an error back to the status code that carries it to the
// client: the sentinel statuses for wrapped sentinels, StatusErr for
// anything else (and StatusOK for nil). Servers use this to answer
// internal failures consistently.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrBusy):
		return StatusBusy
	case errors.Is(err, ErrShutdown):
		return StatusShutdown
	case errors.Is(err, ErrTooLarge):
		return StatusTooLarge
	case errors.Is(err, ErrMalformed):
		return StatusMalformed
	default:
		return StatusErr
	}
}

// BatchOp is one operation inside a BATCH request. Kind must be OpGet,
// OpPut or OpDel; Value is ignored for gets and deletes.
type BatchOp struct {
	Kind  Opcode
	Key   uint64
	Value []byte
}

// Pair is one key/value result of a SCAN.
type Pair struct {
	Key   uint64
	Value []byte
}

// OpResult is one per-op result inside a BATCH response: for a PUT,
// (existed, old value); for a GET, (found, value); for a DEL,
// (found, removed value).
type OpResult struct {
	Found bool
	Value []byte
}

// Request is a decoded request frame. Exactly the fields implied by Op
// are meaningful.
type Request struct {
	Op  Opcode
	ID  uint64
	Key uint64 // GET/PUT/DEL
	Val []byte // PUT

	Lo, Hi uint64 // SCAN / SNAP_SCAN
	Limit  uint32 // SCAN / SNAP_SCAN

	// Snap is the snapshot lease id for SNAP_SCAN (0 opens a new lease)
	// and SNAP_RELEASE.
	Snap uint64

	Batch []BatchOp // BATCH
}

// Response is a decoded response frame.
type Response struct {
	Op     Opcode
	Status Status
	ID     uint64

	Found bool   // GET/PUT/DEL: found / existed; SNAP_RELEASE: lease existed
	Value []byte // GET value, PUT old value, DEL removed value

	// Snap is the snapshot lease id a SNAP_SCAN page belongs to (newly
	// minted when the request opened with Snap = 0).
	Snap uint64

	Pairs   []Pair     // SCAN / SNAP_SCAN
	Results []OpResult // BATCH

	Msg string // non-OK statuses
}

// Err converts a non-OK response into an error (nil for StatusOK).
// Protocol-level rejections wrap the status's sentinel, so callers can
// match with errors.Is(err, ErrBusy) etc. while still seeing the
// server's message.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	base := r.Status.Err()
	if r.Msg == "" {
		return base
	}
	if r.Status == StatusErr {
		return fmt.Errorf("wire: %s: %s", r.Status, r.Msg)
	}
	return fmt.Errorf("%w: %s", base, r.Msg)
}

// ---------------------------------------------------------------------
// Framing.

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload slice, which aliases buf's backing
// array and is valid until the next call with the same buffer.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into buf too: a local array handed to
	// r.Read would escape, one heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	bw, ok := w.(io.ByteWriter)
	if !ok {
		// Unbuffered (a bare socket): the whole frame in one Write.
		_, err := w.Write(AppendFrame(make([]byte, 0, 4+len(payload)), payload))
		return err
	}
	// A buffered writer takes the length prefix a byte at a time: a
	// local array handed to w.Write would escape, one heap allocation
	// per frame.
	n := uint32(len(payload))
	for shift := 24; shift >= 0; shift -= 8 {
		if err := bw.WriteByte(byte(n >> shift)); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the frame (length prefix + payload) that
// WriteFrame would emit to dst — for callers that coalesce several
// frames into one write.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ---------------------------------------------------------------------
// Request encoding.

// AppendRequest appends q's payload (no length prefix) to dst.
func AppendRequest(dst []byte, q *Request) ([]byte, error) {
	dst = append(dst, byte(q.Op))
	dst = binary.BigEndian.AppendUint64(dst, q.ID)
	switch q.Op {
	case OpGet, OpDel:
		dst = binary.BigEndian.AppendUint64(dst, q.Key)
	case OpPut:
		if len(q.Val) > MaxValue {
			return nil, fmt.Errorf("%w: value of %d bytes exceeds MaxValue (%d)", ErrTooLarge, len(q.Val), MaxValue)
		}
		dst = binary.BigEndian.AppendUint64(dst, q.Key)
		dst = appendValue(dst, q.Val)
	case OpScan:
		dst = binary.BigEndian.AppendUint64(dst, q.Lo)
		dst = binary.BigEndian.AppendUint64(dst, q.Hi)
		dst = binary.BigEndian.AppendUint32(dst, q.Limit)
	case OpSnapScan:
		dst = binary.BigEndian.AppendUint64(dst, q.Snap)
		dst = binary.BigEndian.AppendUint64(dst, q.Lo)
		dst = binary.BigEndian.AppendUint64(dst, q.Hi)
		dst = binary.BigEndian.AppendUint32(dst, q.Limit)
	case OpSnapRelease:
		dst = binary.BigEndian.AppendUint64(dst, q.Snap)
	case OpBatch:
		if len(q.Batch) > MaxBatchOps {
			return nil, fmt.Errorf("%w: batch of %d ops exceeds MaxBatchOps (%d)", ErrTooLarge, len(q.Batch), MaxBatchOps)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(q.Batch)))
		for _, op := range q.Batch {
			switch op.Kind {
			case OpGet, OpPut, OpDel:
			default:
				return nil, fmt.Errorf("%w: batch op kind %s not batchable", ErrMalformed, op.Kind)
			}
			if op.Kind == OpPut && len(op.Value) > MaxValue {
				return nil, fmt.Errorf("%w: batch value of %d bytes exceeds MaxValue (%d)", ErrTooLarge, len(op.Value), MaxValue)
			}
			dst = append(dst, byte(op.Kind))
			dst = binary.BigEndian.AppendUint64(dst, op.Key)
			if op.Kind == OpPut {
				dst = appendValue(dst, op.Value)
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown opcode %s", ErrMalformed, q.Op)
	}
	return dst, nil
}

// DecodeRequest parses a request payload into q, reusing q.Batch's
// capacity. The returned request aliases nothing in p.
func DecodeRequest(p []byte, q *Request) error {
	d := decoder{buf: p}
	op := Opcode(d.u8())
	id := d.u64()
	*q = Request{Op: op, ID: id, Batch: q.Batch[:0]}
	switch op {
	case OpGet, OpDel:
		q.Key = d.u64()
	case OpPut:
		q.Key = d.u64()
		q.Val = d.value()
	case OpScan:
		q.Lo = d.u64()
		q.Hi = d.u64()
		q.Limit = d.u32()
		if q.Limit > MaxScanLimit {
			return fmt.Errorf("%w: scan limit %d exceeds MaxScanLimit (%d)", ErrTooLarge, q.Limit, MaxScanLimit)
		}
	case OpSnapScan:
		q.Snap = d.u64()
		q.Lo = d.u64()
		q.Hi = d.u64()
		q.Limit = d.u32()
		if q.Limit > MaxScanLimit {
			return fmt.Errorf("%w: scan limit %d exceeds MaxScanLimit (%d)", ErrTooLarge, q.Limit, MaxScanLimit)
		}
	case OpSnapRelease:
		q.Snap = d.u64()
	case OpBatch:
		n := d.u32()
		if n > MaxBatchOps {
			return fmt.Errorf("%w: batch of %d ops exceeds MaxBatchOps (%d)", ErrTooLarge, n, MaxBatchOps)
		}
		for i := uint32(0); i < n; i++ {
			kind := Opcode(d.u8())
			switch kind {
			case OpGet, OpPut, OpDel:
			default:
				if d.err == nil {
					return fmt.Errorf("%w: batch op kind %d not batchable", ErrMalformed, uint8(kind))
				}
			}
			op := BatchOp{Kind: kind, Key: d.u64()}
			if kind == OpPut {
				op.Value = d.value()
			}
			q.Batch = append(q.Batch, op)
		}
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrMalformed, uint8(op))
	}
	return d.finish()
}

// ---------------------------------------------------------------------
// Response encoding.

// AppendResponse appends r's payload (no length prefix) to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, byte(r.Op), byte(r.Status))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	if r.Status != StatusOK {
		msg := r.Msg
		if len(msg) > 1<<12 {
			msg = msg[:1<<12]
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
		return append(dst, msg...)
	}
	switch r.Op {
	case OpGet, OpPut, OpDel:
		dst = append(dst, b2u8(r.Found))
		dst = appendValue(dst, r.Value)
	case OpScan:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Pairs)))
		for _, pr := range r.Pairs {
			dst = binary.BigEndian.AppendUint64(dst, pr.Key)
			dst = appendValue(dst, pr.Value)
		}
	case OpSnapScan:
		dst = binary.BigEndian.AppendUint64(dst, r.Snap)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Pairs)))
		for _, pr := range r.Pairs {
			dst = binary.BigEndian.AppendUint64(dst, pr.Key)
			dst = appendValue(dst, pr.Value)
		}
	case OpSnapRelease:
		dst = append(dst, b2u8(r.Found))
	case OpBatch:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Results)))
		for _, res := range r.Results {
			dst = append(dst, b2u8(res.Found))
			dst = appendValue(dst, res.Value)
		}
	}
	return dst
}

// DecodeResponse parses a response payload into r, reusing r.Pairs and
// r.Results capacity. The returned response aliases nothing in p.
func DecodeResponse(p []byte, r *Response) error {
	d := decoder{buf: p}
	op := Opcode(d.u8())
	status := Status(d.u8())
	id := d.u64()
	*r = Response{Op: op, Status: status, ID: id, Pairs: r.Pairs[:0], Results: r.Results[:0]}
	if status != StatusOK {
		n := d.u16()
		msg := d.bytes(int(n))
		if d.err == nil {
			r.Msg = string(msg)
		}
		return d.finish()
	}
	switch op {
	case OpGet, OpPut, OpDel:
		r.Found = d.u8() != 0
		r.Value = d.value()
	case OpScan:
		n := d.u32()
		if n > MaxScanLimit {
			return fmt.Errorf("%w: scan response of %d pairs exceeds MaxScanLimit (%d)", ErrTooLarge, n, MaxScanLimit)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			r.Pairs = append(r.Pairs, Pair{Key: d.u64(), Value: d.value()})
		}
	case OpSnapScan:
		r.Snap = d.u64()
		n := d.u32()
		if n > MaxScanLimit {
			return fmt.Errorf("%w: scan response of %d pairs exceeds MaxScanLimit (%d)", ErrTooLarge, n, MaxScanLimit)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			r.Pairs = append(r.Pairs, Pair{Key: d.u64(), Value: d.value()})
		}
	case OpSnapRelease:
		r.Found = d.u8() != 0
	case OpBatch:
		n := d.u32()
		if n > MaxBatchOps {
			return fmt.Errorf("%w: batch response of %d results exceeds MaxBatchOps (%d)", ErrTooLarge, n, MaxBatchOps)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			r.Results = append(r.Results, OpResult{Found: d.u8() != 0, Value: d.value()})
		}
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrMalformed, uint8(op))
	}
	return d.finish()
}

// appendValue appends a length-prefixed byte string.
func appendValue(dst, v []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	return append(dst, v...)
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decoder is a cursor over a payload that remembers the first error and
// checks for trailing garbage at the end.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrMalformed
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) bytes(n int) []byte { return d.take(n) }

// value reads a length-prefixed byte string, returning a private copy
// (decode results must alias nothing in the input payload). A nil/empty
// value round-trips as an empty non-nil slice when present.
func (d *decoder) value() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > MaxValue {
		d.err = fmt.Errorf("%w: value of %d bytes exceeds MaxValue (%d)", ErrTooLarge, n, MaxValue)
		return nil
	}
	b := d.take(int(n))
	if d.err != nil || n == 0 {
		// Empty values decode to nil so they round-trip (and cost no
		// allocation); len is the contract, nil-ness is not.
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrMalformed, len(d.buf)-d.off)
	}
	return nil
}
