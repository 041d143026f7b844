// Crash recovery: run a concurrent insert workload, pull the plug at an
// arbitrary persistent-memory access (losing every unflushed cache
// line), reopen the store, and verify the structure repaired itself —
// the paper's headline capability (§4.1.3–§4.1.5).
package main

import (
	"fmt"
	"log"
	"sync"

	"upskiplist"
	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/pmem"
)

func main() {
	opts := upskiplist.DefaultOptions()
	opts.KeysPerNode = 8
	store, err := upskiplist.Create(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Preload some durable data.
	w := store.NewWorker(0)
	const preload = 1000
	for k := uint64(1); k <= preload; k++ {
		if _, _, err := w.PutU64(k, k); err != nil {
			log.Fatal(err)
		}
	}

	// Arm the power failure: crash tracking snapshots unflushed lines,
	// and the injector kills every worker at its next pool access once
	// the countdown expires.
	store.EnableCrashTracking()
	inj := pmem.NewCountdownInjector(40000)
	store.SetInjector(inj)

	var wg sync.WaitGroup
	var completed [4]int
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashSignal); !ok {
						panic(r) // real bug, not the injected failure
					}
				}
			}()
			worker := store.NewWorker(id)
			for i := 0; ; i++ {
				k := uint64(preload + id*100000 + i + 1)
				if _, _, err := worker.PutU64(k, k); err != nil {
					return
				}
				completed[id]++
			}
		}(id)
	}
	wg.Wait()

	// The machine is dead: unflushed cache lines are gone. Disarm the
	// injector before recovery code touches the pools again.
	inj.Disarm()
	store.SetInjector(nil)
	lost := store.SimulateCrash()
	store.DisableCrashTracking()
	total := 0
	for _, c := range completed {
		total += c
	}
	fmt.Printf("crash: %d operations had completed, %d cache lines lost\n", total, lost)

	// Recovery = reattach + epoch bump. Repairs are deferred into later
	// traversals (watch the recovery counters).
	store2, err := store.Reopen()
	if err != nil {
		log.Fatal(err)
	}
	w2 := store2.NewWorker(0)

	// All preloaded keys must have survived.
	for k := uint64(1); k <= preload; k++ {
		if v, ok := w2.GetU64(k); !ok || v != k {
			log.Fatalf("preloaded key %d damaged: %d %v", k, v, ok)
		}
	}
	// The structure must be fully consistent.
	if err := w2.CheckInvariants(); err != nil {
		log.Fatalf("invariants violated after recovery: %v", err)
	}
	// The failure-free epoch is a word of the (single) shard's first pool.
	fmt.Printf("after reopen: epoch=%d, %d live keys, invariants OK\n",
		epoch.Attach(store2.ShardPools(0)[0], alloc.EpochOff).Current(), w2.Count())

	// Keep operating; stale-epoch nodes get repaired on sight.
	for k := uint64(1); k <= preload; k++ {
		w2.GetU64(k)
	}
	rec := store2.ShardList(0).RecoveryStats()
	fmt.Printf("lazy repairs while reading: %d nodes claimed, %d towers completed, %d splits finished\n",
		rec.Claims, rec.Inserts, rec.Splits)

	// Reclaim anything a dying allocation left behind (normally deferred
	// to the owning thread's next allocation; here we sweep eagerly).
	if n := store2.ReclaimOrphans(); n > 0 {
		fmt.Printf("orphan sweep reclaimed %d blocks\n", n)
	}
}
