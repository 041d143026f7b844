package main

// Input generation. Everything the program under test receives — preload
// order, op streams, value bytes — is produced here from the -seed
// argument alone. Nothing in this file imports the product, so a product
// change cannot move the inputs; gen_test.go pins them with a golden
// hash.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Op kinds.
const (
	OpGet uint8 = iota
	OpPut
	OpRemove
	OpScan
	numKinds
)

// Op is one generated operation. On a single-writer stream the generator
// tracks the store's contents exactly, so Ver on a Get is the version
// the read must return; on a Put it is the version to write; on a Scan
// it is the number of pairs the scan must return (N, or fewer when the
// key space ends first).
type Op struct {
	Kind uint8
	N    uint16 // Scan: pairs requested
	Ver  uint32
	Key  uint64
}

// Law names the stream law of a workload.
type Law uint8

const (
	// LawA is YCSB-A: 50 % Get / 50 % Put-update, scrambled Zipfian.
	LawA Law = iota
	// LawE is YCSB-E: 95 % Scan of 1–100 pairs from a scrambled-Zipfian
	// start key, 5 % insert of the next new key.
	LawE
	// LawChurn is rounds of {Put fresh key, Remove a uniformly random
	// live key, Get, Get} over a constant-size live set.
	LawChurn
)

// zipfTheta is YCSB's default skew.
const zipfTheta = 0.99

// maxScanLen bounds YCSB-E scan lengths (uniform in [1, maxScanLen]).
const maxScanLen = 100

// rng is splitmix64: small, fast, and fixed here so the streams do not
// depend on any library's generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// intn returns a value in [0, n) (n > 0). The multiply-shift mapping has
// a bias below 2^-40 for every n used here.
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta (Gray et
// al., the generator YCSB uses). The zeta constants depend only on n.
type zipf struct {
	n                 uint64
	alpha, zetan, eta float64
	half              float64 // 1 + 0.5^theta
}

func newZipf(n uint64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), zipfTheta)
		}
		return s
	}
	zetan, zeta2 := zeta(n), zeta(2)
	return &zipf{
		n:     n,
		alpha: 1 / (1 - zipfTheta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-zipfTheta)) / (1 - zeta2/zetan),
		half:  1 + math.Pow(0.5, zipfTheta),
	}
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// key scrambles a rank over the dense key space [1, n], so the hot keys
// are spread over the structure instead of clustered at its head.
func (z *zipf) key(r *rng) uint64 { return 1 + mix64(z.rank(r)+0x5851F42D4C957F2D)%z.n }

// Preload returns the keys 1..n in the seeded random order the store is
// loaded in. Every preloaded key holds version 0.
func Preload(n int, seed uint64) []uint64 {
	r := rng{s: mix64(seed ^ 0x7072656C6F6164)} // "preload"
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// verWriterShift places the writer id above a 28-bit write counter, so
// the version a reader finds names the stream that wrote it.
const verWriterShift = 28

// Stream generates one driver's operations. It also is that driver's
// model of the store: which version it last wrote to each key, which
// keys are live, which were removed.
type Stream struct {
	law    Law
	writer uint32
	r      rng
	z      *zipf
	n      uint64 // preloaded keys

	// LawA: last[k] is the version this writer last wrote to key k
	// (0 = never; the key then still holds another writer's version or
	// the preload's). exact is set on single-writer streams, where
	// last[k] is also what a Get must return.
	last   []uint32
	writes uint32
	exact  bool

	// LawE: maxKey is the largest key inserted so far.
	maxKey uint64

	// LawChurn: live keys (all at version 0), the next fresh key, and
	// the keys removed so far, oldest first.
	live    []uint64
	nextKey uint64
	removed []uint64
	phase   uint8
}

// NewStream returns writer's stream of an nWriters-driver workload. All
// writers share z (read-only after construction).
func NewStream(law Law, z *zipf, keys int, seed uint64, writer, nWriters int) *Stream {
	s := &Stream{
		law:    law,
		writer: uint32(writer),
		r:      rng{s: mix64(seed) ^ mix64(uint64(writer)+0x73747265616D)}, // "stream"
		z:      z,
		n:      uint64(keys),
		exact:  nWriters == 1,
		maxKey: uint64(keys),
	}
	switch law {
	case LawA:
		s.last = make([]uint32, keys+1)
	case LawChurn:
		s.live = make([]uint64, keys)
		for i := range s.live {
			s.live[i] = uint64(i + 1)
		}
		s.nextKey = uint64(keys) + 1
	}
	return s
}

// Fill overwrites ops with the stream's next len(ops) operations.
func (s *Stream) Fill(ops []Op) {
	for i := range ops {
		ops[i] = s.nextOp()
	}
}

func (s *Stream) nextOp() Op {
	switch s.law {
	case LawA:
		k := s.z.key(&s.r)
		if s.r.next()&1 == 0 {
			op := Op{Kind: OpGet, Key: k}
			if s.exact {
				op.Ver = s.last[k]
			}
			return op
		}
		s.writes++
		v := s.writer<<verWriterShift | s.writes&(1<<verWriterShift-1)
		s.last[k] = v
		return Op{Kind: OpPut, Key: k, Ver: v}
	case LawE:
		if s.r.intn(100) < 5 {
			s.maxKey++
			return Op{Kind: OpPut, Key: s.maxKey}
		}
		lo, n := s.z.key(&s.r), 1+s.r.intn(maxScanLen)
		return Op{Kind: OpScan, Key: lo, N: uint16(n), Ver: uint32(min(n, s.maxKey-lo+1))}
	default: // LawChurn
		ph := s.phase
		s.phase = (s.phase + 1) & 3
		switch ph {
		case 0:
			k := s.nextKey
			s.nextKey++
			s.live = append(s.live, k)
			return Op{Kind: OpPut, Key: k}
		case 1:
			i := s.r.intn(uint64(len(s.live)))
			k := s.live[i]
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			s.removed = append(s.removed, k)
			return Op{Kind: OpRemove, Key: k}
		default:
			return Op{Kind: OpGet, Key: s.live[s.r.intn(uint64(len(s.live)))]}
		}
	}
}

// Values. A value names its owner and its version and fills the rest
// with a pattern derived from both, so a reader can tell a value that
// belongs to another key, a stale length, or a torn mix of two versions
// from a good one without knowing which version to expect.

func tag32(key uint64) uint64 { return mix64(key^0x76616C7565) >> 32 << 32 } // "value"

// FillValue writes key's value at version ver into buf. len(buf) is the
// workload's value size: 8, or a multiple of 8 that is at least 16.
func FillValue(buf []byte, key uint64, ver uint32) {
	head := tag32(key) | uint64(ver)
	if len(buf) == 8 {
		binary.LittleEndian.PutUint64(buf, head)
		return
	}
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint64(buf[8:], head)
	p := head * 0x9E3779B97F4A7C15
	for off := 16; off < len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], p+uint64(off))
	}
}

// CheckValue reports whether b is a well-formed value of key with the
// workload's length, and the version it carries.
func CheckValue(b []byte, key uint64, wantLen int) (ver uint32, ok bool) {
	if len(b) != wantLen {
		return 0, false
	}
	if wantLen == 8 {
		head := binary.LittleEndian.Uint64(b)
		return uint32(head), head>>32<<32 == tag32(key)
	}
	head := binary.LittleEndian.Uint64(b[8:])
	if binary.LittleEndian.Uint64(b) != key || head>>32<<32 != tag32(key) {
		return 0, false
	}
	p := head * 0x9E3779B97F4A7C15
	for off := 16; off < len(b); off += 8 {
		if binary.LittleEndian.Uint64(b[off:]) != p+uint64(off) {
			return 0, false
		}
	}
	return uint32(head), true
}
