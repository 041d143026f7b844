package skiplist

import (
	"math/rand"
	"testing"

	"upskiplist/internal/riv"
)

// hintCfg keeps nodes small and towers short so a modest keyspace
// exercises splits, multi-node traversals and hint-seeded descents.
func hintCfg() Config { return Config{MaxHeight: 10, KeysPerNode: 4} }

func TestHintCacheSeedsAndStaysCorrect(t *testing.T) {
	e := newEnv(t, hintCfg())
	ctx := ctx0()
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	// Re-read every key twice: the second pass runs against a warm cache.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(1); k <= n; k++ {
			v, ok := e.sl.Get(ctx, k)
			if !ok || v != k*10 {
				t.Fatalf("pass %d: Get(%d) = (%d, %v), want (%d, true)", pass, k, v, ok, k*10)
			}
		}
	}
	// Absent keys near present ones must also resolve correctly from a
	// seeded descent.
	for k := uint64(n + 1); k <= n+50; k++ {
		if _, ok := e.sl.Get(ctx, k); ok {
			t.Fatalf("Get(%d) found an absent key", k)
		}
	}
	if ctx.Hints.Seeded == 0 {
		t.Fatal("hint cache never seeded a traversal")
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHintCacheDisabled(t *testing.T) {
	e := newEnv(t, hintCfg())
	e.sl.SetTuning(Tuning{NoHints: true})
	ctx := ctx0()
	for k := uint64(1); k <= 200; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := e.sl.Get(ctx, k); !ok || v != k {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if ctx.Hints.Seeded != 0 || ctx.Hints.Missed != 0 {
		t.Fatalf("disabled cache was consulted: %+v", ctx.Hints)
	}
	if got := e.sl.Tuning(); !got.NoHints {
		t.Fatal("Tuning does not report the disabled hint cache")
	}
}

func TestHintCacheSeedIsCoveringNode(t *testing.T) {
	// A hint can point exactly at the node whose first key IS the target:
	// the seeded traversal must detect the match on the seed itself (the
	// descent only inspects nodes it advances into).
	e := newEnv(t, Config{MaxHeight: 10, KeysPerNode: 2})
	ctx := ctx0()
	for k := uint64(1); k <= 100; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	// First pass records a hint for every key prefix; second pass seeds
	// from them, repeatedly landing on nodes whose key0 equals the target.
	for pass := 0; pass < 2; pass++ {
		for k := uint64(1); k <= 100; k++ {
			if v, ok := e.sl.Get(ctx, k); !ok || v != k+1000 {
				t.Fatalf("pass %d: Get(%d) = (%d, %v)", pass, k, v, ok)
			}
		}
	}
}

func TestHintCacheSurvivesNothingAcrossReopen(t *testing.T) {
	e := newEnv(t, hintCfg())
	ctx := ctx0()
	for k := uint64(1); k <= 300; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 300; k++ {
		e.sl.Get(ctx, k) // warm the cache against the old handle
	}
	if ctx.Hints.Seeded == 0 {
		t.Fatal("cache not warm before reopen")
	}
	e2 := e.reopen(t) // epoch advances; a fresh SkipList handle

	// Claim every node for the new epoch through another context, so a
	// pre-reopen hint would pass hintSeed's epoch check and only the
	// owner stamp stands between it and a seeded descent.
	other := ctx0()
	for claims := int64(1); claims != 0; {
		before := e2.sl.RecoveryStats().Claims
		for k := uint64(1); k <= 300; k++ {
			e2.sl.Get(other, k)
		}
		claims = e2.sl.RecoveryStats().Claims - before
	}

	// Deliberately reuse the SAME ctx (same volatile cache) against the
	// reopened list. The first Get in each hint slot's key range can be
	// seeded only by a hint recorded before the reopen: the owner stamp
	// must have wiped them all, so none of those Gets is seeded. Each
	// Get asks for the key the warm pass recorded the slot's hint for
	// last, so the hinted node covers it and would pass validation.
	for tag := uint64(0); tag <= 300>>hintShift; tag++ {
		k := min(tag<<hintShift|(1<<hintShift-1), 300)
		seeded := ctx.Hints.Seeded
		if v, ok := e2.sl.Get(ctx, k); !ok || v != k {
			t.Fatalf("post-reopen Get(%d) = (%d, %v)", k, v, ok)
		}
		if ctx.Hints.Seeded != seeded {
			t.Fatalf("post-reopen Get(%d) was seeded by a hint recorded before the reopen", k)
		}
	}
	for k := uint64(1); k <= 300; k++ {
		if v, ok := e2.sl.Get(ctx, k); !ok || v != k {
			t.Fatalf("post-reopen Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if err := e2.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHintCacheInvalidatedByCompaction(t *testing.T) {
	e := newEnv(t, hintCfg())
	ctx := ctx0()
	for k := uint64(1); k <= 400; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 400; k++ {
		e.sl.Get(ctx, k) // cache now points into live nodes
	}
	// Tombstone a stretch and compact: those nodes' blocks go back to the
	// allocator and may be reincarnated by later inserts.
	for k := uint64(100); k <= 300; k++ {
		if _, _, err := e.sl.Remove(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.sl.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	// Reinsert into recycled blocks, then verify every key through the
	// same (stale) cache: the generation bump must have wiped it.
	for k := uint64(100); k <= 300; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 400; k++ {
		want := k
		if k >= 100 && k <= 300 {
			want = k * 7
		}
		if v, ok := e.sl.Get(ctx, k); !ok || v != want {
			t.Fatalf("Get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestHintCacheRandomizedAgainstModel(t *testing.T) {
	e := newEnv(t, hintCfg())
	ctx := ctx0()
	rng := rand.New(rand.NewSource(7))
	model := map[uint64]uint64{}
	const keyspace = 300
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(keyspace)) + 1
		switch rng.Intn(4) {
		case 0, 1:
			v := uint64(rng.Intn(1 << 20))
			old, existed, err := e.sl.Insert(ctx, k, v)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := model[k]; ok != existed || (ok && old != want) {
				t.Fatalf("op %d: Insert(%d) old=(%d,%v), model=(%d,%v)", i, k, old, existed, want, ok)
			}
			model[k] = v
		case 2:
			got, ok := e.sl.Get(ctx, k)
			want, wok := model[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), model=(%d,%v)", i, k, got, ok, want, wok)
			}
		case 3:
			old, existed, err := e.sl.Remove(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := model[k]; ok != existed || (ok && old != want) {
				t.Fatalf("op %d: Remove(%d) = (%d,%v), model=(%d,%v)", i, k, old, existed, want, ok)
			}
			delete(model, k)
		}
	}
	if got, want := e.sl.Count(ctx), len(model); got != want {
		t.Fatalf("Count = %d, model has %d", got, want)
	}
	if ctx.Hints.Seeded == 0 {
		t.Fatal("randomized run never used a hint")
	}
	if err := e.sl.CheckInvariants(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHintSeedLevelFromHeight: a seed's level is read off the hinted
// node's tower height, from the header line its validation reads — level
// 1 on a node whose tower reaches it, level 0 on a one-level node.
func TestHintSeedLevelFromHeight(t *testing.T) {
	e := newEnv(t, hintCfg())
	ctx := ctx0()
	for k := uint64(1); k <= 500; k++ {
		if _, _, err := e.sl.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	curEpoch := e.sl.a.Clock().Current()
	seen := [2]bool{}
	for p := e.sl.node(e.sl.head).next(e.sl, 0, ctx.Mem); p != e.sl.tail; {
		n := e.sl.node(p)
		h := n.header(ctx.Mem)
		want := 0
		if h.height() > 1 {
			want = 1
		}
		k0 := h.key0()
		ctx.Hints.Validate(e.sl, e.sl.hintGen.Load())
		ctx.Hints.Put(k0>>hintShift, p.Word())
		seed, _, lvl, ok := e.sl.hintSeed(ctx, k0, curEpoch)
		if !ok || seed.ptr != p || lvl != want {
			t.Fatalf("seed on a height-%d node: (%v, level %d, %v), want (%v, level %d, true)", h.height(), seed.ptr, lvl, ok, p, want)
		}
		seen[want] = true
		p = riv.FromWord(h[offNext] &^ nextMark)
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("the list had no node of each kind (short %v, tall %v)", seen[0], seen[1])
	}
}
