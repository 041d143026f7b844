package main

import (
	"slices"
	"testing"
)

// fakeStore is a driver over an in-memory map that can be told to
// misbehave the ways a broken engine would.
type fakeStore struct {
	m        map[uint64][]byte
	valueLen int

	dropPutEvery int  // acknowledge every n-th Put without applying it
	shortGets    bool // return values with the last word cut off
	swapScan     bool // return a scan's second and third pair in the wrong order
	puts         int
}

func (f *fakeStore) run(ops []Op, rec *recorder) {
	buf := make([]byte, f.valueLen)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpGet:
			v, ok := f.m[op.Key]
			if ok && f.shortGets {
				v = v[:len(v)-8]
			}
			rec.checkGet(op, v, ok)
		case OpPut:
			f.puts++
			old, existed := f.m[op.Key]
			if f.dropPutEvery == 0 || f.puts%f.dropPutEvery != 0 {
				FillValue(buf, op.Key, op.Ver)
				f.m[op.Key] = slices.Clone(buf)
			}
			rec.chk.put(rec.r, op, old, existed, nil)
		case OpRemove:
			old, ok := f.m[op.Key]
			delete(f.m, op.Key)
			rec.chk.remove(rec.r, op, old, ok, nil)
		case OpScan:
			var keys []uint64
			for k := op.Key; len(keys) < int(op.N); k++ {
				if _, ok := f.m[k]; !ok {
					break
				}
				keys = append(keys, k)
			}
			if f.swapScan && len(keys) > 2 {
				keys[1], keys[2] = keys[2], keys[1]
			}
			var sc scanCheck
			sc.begin(op.Key)
			for _, k := range keys {
				sc.visit(rec.r, k, f.m[k])
			}
			rec.chk.scan(op, &sc, nil)
		}
	}
}

// fakeBench loads a fakeStore the way setUp loads a real one.
func fakeBench(sp Spec, f *fakeStore) *bench {
	f.m, f.valueLen = map[uint64][]byte{}, sp.ValueLen
	for _, k := range Preload(sp.Keys, 1) {
		buf := make([]byte, sp.ValueLen)
		FillValue(buf, k, 0)
		f.m[k] = buf
	}
	return newBench(sp, &target{drivers: []driver{f}}, 1, sp.Drivers, sp.rules())
}

// runChecked runs two segments and the sweep, and returns the verdict.
func runChecked(b *bench) Check {
	b.segment(-1)
	b.segment(-1)
	var chk Check
	chk.merge(&b.recs[0].chk)
	b.sweep(&chk)
	return chk
}

func TestCheckerCatchesWrongResults(t *testing.T) {
	small := func(name string) Spec {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return sp.scaled(0.01)
	}
	cases := []struct {
		name     string
		workload string
		fault    fakeStore
		wantFail bool
	}{
		{"honest point store", "point-a-1w", fakeStore{}, false},
		{"honest scan store", "scan-e-4s", fakeStore{}, false},
		{"honest churn store", "churn-4k", fakeStore{}, false},
		{"dropped write", "point-a-1w", fakeStore{dropPutEvery: 50}, true},
		{"wrong length", "value-1k", fakeStore{shortGets: true}, true},
		{"out-of-order scan", "scan-e-4s", fakeStore{swapScan: true}, true},
	}
	for _, c := range cases {
		f := c.fault
		chk := runChecked(fakeBench(small(c.workload), &f))
		if chk.Attempted == 0 {
			t.Errorf("%s: nothing was checked", c.name)
		}
		if got := chk.FailedFrac() > 0; got != c.wantFail {
			t.Errorf("%s: failed_ops_frac = %g (%d of %d), want non-zero: %v; notes %v",
				c.name, chk.FailedFrac(), chk.Failed, chk.Attempted, c.wantFail, chk.Notes)
		}
		if chk.Lost != 0 {
			t.Errorf("%s: %d lost acknowledged writes outside the durability tail", c.name, chk.Lost)
		}
	}
}

// TestCheckerCountsLostAckedWrites reads acknowledged writes back from
// a store that lost one of them across its "crash".
func TestCheckerCountsLostAckedWrites(t *testing.T) {
	sp, _ := specByName("churn-4k")
	sp = sp.scaled(0.01)
	var f fakeStore
	b := fakeBench(sp, &f)
	b.segment(-1)

	// The tail: more acknowledged writes and removes, then the crash.
	var acked []Op
	for len(acked) < 100 {
		if op := b.streams[0].nextOp(); op.Kind != OpGet {
			acked = append(acked, op)
		}
	}
	f.run(acked, b.recs[0])
	if b.recs[0].chk.Failed != 0 {
		t.Fatalf("honest store failed before the crash: %v", b.recs[0].chk.Notes)
	}
	touched := make([]uint64, len(acked))
	for i, op := range acked {
		touched[i] = op.Key
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)

	var clean Check
	b.readBack(b.t, newOracle(sp, b.streams), touched, true, &clean)
	if clean.Lost != 0 || clean.Failed != 0 {
		t.Fatalf("nothing was lost, yet lost_acked_writes = %d (%v)", clean.Lost, clean.Notes)
	}

	var lastPut, lastRemove uint64
	for _, op := range acked {
		if op.Kind == OpPut {
			lastPut = op.Key
		} else {
			lastRemove = op.Key
		}
	}
	removedValue := make([]byte, sp.ValueLen)
	FillValue(removedValue, lastRemove, 0)
	delete(f.m, lastPut)           // an acknowledged insert that did not survive
	f.m[lastRemove] = removedValue // an acknowledged remove that came back
	var lossy Check
	b.readBack(b.t, newOracle(sp, b.streams), touched, true, &lossy)
	if lossy.Lost != 2 || lossy.Failed != 2 {
		t.Errorf("lost_acked_writes = %d, failed = %d, want 2 and 2 (%v)", lossy.Lost, lossy.Failed, lossy.Notes)
	}
}
