// Package ycsb reimplements the parts of the Yahoo Cloud Serving
// Benchmark used by the paper's evaluation (§5.1.2, Table 5.1): the
// scrambled-Zipfian and Latest request distributions and the operation
// mixes of workloads A–D.
//
// Workload properties (Table 5.1):
//
//	A  Update-Heavy  50/50/0  read/update/insert  Zipfian
//	B  Read-Mostly   95/5/0                       Zipfian
//	C  Read-Only     100/0/0                      Zipfian
//	D  Read-Latest   95/0/5                       Latest
//
// Keys are dense integers starting at 1 (the skip list's KeyMin). Inserts
// extend the keyspace; the Latest distribution skews reads toward the
// most recently inserted keys, exactly as in the YCSB paper.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// OpType is a workload operation kind.
type OpType int

const (
	Read OpType = iota
	Update
	Insert
	Scan
)

func (t OpType) String() string {
	switch t {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Scan:
		return "scan"
	default:
		return "unknown"
	}
}

// Op is one generated operation. Value is a payload for writes; ScanLen
// is the record count for range scans.
type Op struct {
	Type    OpType
	Key     uint64
	Value   uint64
	ScanLen int
}

// DistKind selects the request distribution.
type DistKind int

const (
	Zipfian DistKind = iota
	Latest
	Uniform
)

func (d DistKind) String() string {
	switch d {
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	default:
		return "uniform"
	}
}

// Workload is a YCSB workload definition.
type Workload struct {
	Name      string
	LongName  string
	ReadPct   int
	UpdatePct int
	InsertPct int
	ScanPct   int
	// MaxScanLen bounds scan lengths (drawn uniformly in [1, MaxScanLen]).
	MaxScanLen int
	Dist       DistKind
}

// The paper's four workloads (Table 5.1).
var (
	WorkloadA = Workload{Name: "A", LongName: "Update-Heavy", ReadPct: 50, UpdatePct: 50, Dist: Zipfian}
	WorkloadB = Workload{Name: "B", LongName: "Read-Mostly", ReadPct: 95, UpdatePct: 5, Dist: Zipfian}
	WorkloadC = Workload{Name: "C", LongName: "Read-Only", ReadPct: 100, Dist: Zipfian}
	WorkloadD = Workload{Name: "D", LongName: "Read-Latest", ReadPct: 95, InsertPct: 5, Dist: Latest}
	// WorkloadE is standard YCSB E (scan-heavy); the paper omits it
	// because its baselines lack range queries — this reproduction
	// implements scans (the paper's future work), so E is included as an
	// extension experiment.
	WorkloadE = Workload{Name: "E", LongName: "Scan-Heavy", ScanPct: 95, InsertPct: 5, MaxScanLen: 100, Dist: Zipfian}
)

// Workloads lists the standard set in evaluation order.
var Workloads = []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD}

// ByName returns the workload with the given letter.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// ZipfianTheta is YCSB's default skew constant.
const ZipfianTheta = 0.99

// zipfGen implements the Gray et al. bounded Zipfian generator used by
// YCSB, producing ranks in [0, n).
type zipfGen struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	z2    float64 // zeta(2, theta)
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func newZipf(n uint64, theta float64) *zipfGen {
	if n == 0 {
		n = 1
	}
	z := &zipfGen{n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.z2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.z2/z.zetan)
	return z
}

// next returns a rank in [0, n), rank 0 most popular.
func (z *zipfGen) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// fnvScramble is YCSB's FNV-1a 64-bit hash used to spread hot Zipfian
// ranks over the keyspace ("scrambled Zipfian").
func fnvScramble(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Run is the shared state of one workload execution over a keyspace that
// was preloaded with keys 1..Preload. It is safe for concurrent streams.
type Run struct {
	W       Workload
	preload uint64
	nextKey atomic.Uint64 // next key an insert will claim
	zipf    *zipfGen
}

// NewRun prepares a workload over a preloaded keyspace.
func NewRun(w Workload, preload uint64) *Run {
	if preload == 0 {
		preload = 1
	}
	r := &Run{W: w, preload: preload, zipf: newZipf(preload, ZipfianTheta)}
	r.nextKey.Store(preload + 1)
	return r
}

// Preload returns the number of preloaded keys.
func (r *Run) Preload() uint64 { return r.preload }

// InsertedKeys returns how many keys inserts have appended so far.
func (r *Run) InsertedKeys() uint64 { return r.nextKey.Load() - r.preload - 1 }

// Stream is a per-worker deterministic operation stream.
type Stream struct {
	run *Run
	rng *rand.Rand
}

// NewStream creates an independent stream; distinct seeds give distinct
// sequences.
func (r *Run) NewStream(seed int64) *Stream {
	return &Stream{run: r, rng: rand.New(rand.NewSource(seed))}
}

// chooseKey picks a key for a read/update according to the distribution.
func (st *Stream) chooseKey() uint64 {
	r := st.run
	switch r.W.Dist {
	case Latest:
		// Skew toward the most recent key: rank 0 = newest.
		limit := r.nextKey.Load() - 1
		rank := r.zipf.next(st.rng)
		if rank >= limit {
			rank = limit - 1
		}
		return limit - rank
	case Uniform:
		return uint64(st.rng.Int63n(int64(r.preload))) + 1
	default:
		rank := r.zipf.next(st.rng)
		// Scramble, then map into the preloaded keyspace.
		return fnvScramble(rank)%r.preload + 1
	}
}

// Next generates the stream's next operation.
func (st *Stream) Next() Op {
	r := st.run
	p := st.rng.Intn(100)
	switch {
	case p < r.W.ReadPct:
		return Op{Type: Read, Key: st.chooseKey()}
	case p < r.W.ReadPct+r.W.UpdatePct:
		return Op{Type: Update, Key: st.chooseKey(), Value: st.rng.Uint64() >> 1}
	case p < r.W.ReadPct+r.W.UpdatePct+r.W.ScanPct:
		maxLen := r.W.MaxScanLen
		if maxLen < 1 {
			maxLen = 1
		}
		return Op{Type: Scan, Key: st.chooseKey(), ScanLen: st.rng.Intn(maxLen) + 1}
	default:
		k := r.nextKey.Add(1) - 1
		return Op{Type: Insert, Key: k, Value: st.rng.Uint64() >> 1}
	}
}

// Fill generates n operations into ops (resized as needed) and returns
// the slice; used to pre-generate workloads so generation cost stays out
// of the measured runtime, as the paper does (§5.1.2).
func (st *Stream) Fill(ops []Op, n int) []Op {
	if cap(ops) < n {
		ops = make([]Op, n)
	}
	ops = ops[:n]
	for i := range ops {
		ops[i] = st.Next()
	}
	return ops
}
