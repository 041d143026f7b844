package exec

import (
	"testing"
	"testing/quick"
)

func TestNewCtxFields(t *testing.T) {
	c := NewCtx(5, 2)
	if c.ThreadID != 5 || c.Node != 2 || c.Rand == nil {
		t.Fatalf("bad ctx: %+v", c)
	}
}

func TestCtxRandDeterministicPerThread(t *testing.T) {
	a := NewCtx(3, 0).Rand.Uint64()
	b := NewCtx(3, 0).Rand.Uint64()
	if a != b {
		t.Fatal("same thread ID produced different streams")
	}
	cVal := NewCtx(4, 0).Rand.Uint64()
	if a == cVal {
		t.Fatal("different thread IDs produced identical first draw")
	}
}

func TestGeometricHeightBounds(t *testing.T) {
	c := NewCtx(1, 0)
	f := func(_ uint8) bool {
		h := c.GeometricHeight(32)
		return h >= 1 && h <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricHeightDistributionShape(t *testing.T) {
	c := NewCtx(2, 0)
	counts := make([]int, 33)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[c.GeometricHeight(32)]++
	}
	// P(h=1) ~ 0.5, P(h=2) ~ 0.25.
	if counts[1] < n*45/100 || counts[1] > n*55/100 {
		t.Fatalf("P(h=1) = %f, want ~0.5", float64(counts[1])/n)
	}
	if counts[2] < n*20/100 || counts[2] > n*30/100 {
		t.Fatalf("P(h=2) = %f, want ~0.25", float64(counts[2])/n)
	}
}

func TestGetTowersReuse(t *testing.T) {
	c := NewCtx(1, 0)
	a := c.GetTowers(16)
	if len(a.Preds) != 16 || len(a.Succs) != 16 {
		t.Fatalf("towers sized %d/%d, want 16", len(a.Preds), len(a.Succs))
	}
	c.PutTowers(a)
	b := c.GetTowers(16)
	if b != a {
		t.Fatal("free list did not reuse the returned pair")
	}
	// Nested acquisition (traversal holding a pair while recovery takes
	// another) must hand out a distinct pair.
	inner := c.GetTowers(16)
	if inner == b {
		t.Fatal("nested GetTowers returned the pair already in use")
	}
	c.PutTowers(inner)
	c.PutTowers(b)
}

func TestGetTowersRegrow(t *testing.T) {
	c := NewCtx(1, 0)
	a := c.GetTowers(4)
	c.PutTowers(a)
	b := c.GetTowers(32)
	if len(b.Preds) != 32 || len(b.Succs) != 32 {
		t.Fatalf("regrown towers sized %d/%d, want 32", len(b.Preds), len(b.Succs))
	}
}

func TestHintCacheBasic(t *testing.T) {
	// A context that never records a hint holds no table, and every
	// method but Put treats the missing table as an empty one.
	c := NewCtx(1, 0)
	h := &c.Hints
	h.Validate("owner", 1)
	if _, ok := h.Get(7); ok {
		t.Fatal("hit on empty cache")
	}
	h.Drop(7)
	h.Validate("other", 2)
	h.Reset()
	if h.slots != nil {
		t.Fatal("a context that recorded no hint allocated the table")
	}
	h.Validate("owner", 1)
	h.Put(7, 0xabc)
	if h.slots == nil {
		t.Fatal("Put did not allocate the table")
	}
	v, ok := h.Get(7)
	if !ok || v != 0xabc {
		t.Fatalf("Get = (%#x, %v), want (0xabc, true)", v, ok)
	}
	// tag 0 must be storable (slot-empty marking is tag+1 internally).
	h.Put(0, 0x123)
	if v, ok := h.Get(0); !ok || v != 0x123 {
		t.Fatalf("Get(0) = (%#x, %v), want (0x123, true)", v, ok)
	}
	h.Drop(7)
	if _, ok := h.Get(7); ok {
		t.Fatal("entry survived Drop")
	}
	h.Reset()
	if _, ok := h.Get(0); ok {
		t.Fatal("entry survived Reset")
	}
}

func TestHintCacheValidateWipes(t *testing.T) {
	var h HintCache
	ownerA, ownerB := &struct{ int }{}, &struct{ int }{}
	h.Validate(ownerA, 1)
	h.Put(7, 0xabc)
	h.Validate(ownerA, 1)
	if _, ok := h.Get(7); !ok {
		t.Fatal("matching Validate dropped entries")
	}
	h.Validate(ownerA, 2) // generation bump (compaction)
	if _, ok := h.Get(7); ok {
		t.Fatal("entry survived a generation bump")
	}
	h.Put(7, 0xabc)
	h.Validate(ownerB, 2) // different structure / reopened handle
	if _, ok := h.Get(7); ok {
		t.Fatal("entry survived an owner change")
	}
}

func TestHintCacheCollision(t *testing.T) {
	var h HintCache
	h.Put(3, 111)
	h.Put(3+HintSlots, 222) // same slot, different tag
	if _, ok := h.Get(3); ok {
		t.Fatal("evicted entry still readable")
	}
	if v, ok := h.Get(3 + HintSlots); !ok || v != 222 {
		t.Fatalf("colliding Put lost: (%d, %v)", v, ok)
	}
}

func TestGeometricHeightMaxOne(t *testing.T) {
	c := NewCtx(1, 0)
	for i := 0; i < 100; i++ {
		if h := c.GeometricHeight(1); h != 1 {
			t.Fatalf("height = %d with max 1", h)
		}
	}
}
