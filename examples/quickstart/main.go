// Quickstart: create a persistent skip list store, write and read a few
// pairs, simulate a restart, and show that the data survived — all
// through the public upskiplist API.
package main

import (
	"fmt"
	"log"

	"upskiplist"
)

func main() {
	// A Store bundles the simulated persistent-memory pools, the RIV
	// address space, the epoch clock, the recoverable allocator, and the
	// skip list itself.
	store, err := upskiplist.Create(upskiplist.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Each goroutine gets its own Worker; the thread ID is a stable
	// identity used by the allocator's deferred crash recovery.
	w := store.NewWorker(0)

	// Insert is an upsert: it reports the previous value if the key
	// already existed.
	for key := uint64(1); key <= 10; key++ {
		if _, _, err := w.PutU64(key, key*100); err != nil {
			log.Fatal(err)
		}
	}
	if old, existed, _ := w.PutU64(7, 777); existed {
		fmt.Printf("updated key 7: %d -> 777\n", old)
	}

	if v, ok := w.GetU64(7); ok {
		fmt.Printf("get 7 = %d\n", v)
	}

	// Remove tombstones the value (§4.6 of the paper).
	if old, existed, _ := w.RemoveU64(3); existed {
		fmt.Printf("removed key 3 (was %d)\n", old)
	}

	// Range scan over the bottom level.
	fmt.Print("scan [1,10]:")
	w.ScanU64(1, 10, func(k, v uint64) bool {
		fmt.Printf(" %d=%d", k, v)
		return true
	})
	fmt.Println()

	// Simulate a process restart: reattach to the same pools. This is
	// the paper's constant-time recovery — no structure-sized work.
	store2, err := store.Reopen()
	if err != nil {
		log.Fatal(err)
	}
	w2 := store2.NewWorker(0)
	fmt.Printf("after reopen: %d live keys, get 7 = ", w2.Count())
	v, _ := w2.GetU64(7)
	fmt.Println(v)
}
