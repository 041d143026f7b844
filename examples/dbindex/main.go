// Database index: the paper's motivating scenario (§1.1) — a fully
// PMEM-resident index for a record store, so a crash needs no index
// rebuild from secondary storage. This example models a table of orders
// indexed by order ID, mixing point lookups, range scans for reporting,
// updates, and a crash/reopen in the middle of the business day.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"upskiplist"
)

// order is the application record; the index maps order ID -> a compact
// encoded form (real systems would store a record locator).
type order struct {
	id     uint64
	amount uint64 // cents
	status uint64 // 0=open 1=shipped 2=cancelled
}

func encode(o order) uint64  { return o.amount<<8 | o.status }
func amount(v uint64) uint64 { return v >> 8 }
func status(v uint64) uint64 { return v & 0xff }

func main() {
	opts := upskiplist.DefaultOptions()
	opts.KeysPerNode = 32 // multi-key nodes: fewer pointer hops per lookup
	store, err := upskiplist.Create(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Bulk-load the day's first orders from several loader threads.
	const orders = 20000
	var wg sync.WaitGroup
	for t := 0; t < 4; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := store.NewWorker(t)
			rng := rand.New(rand.NewSource(int64(t)))
			for i := t; i < orders; i += 4 {
				o := order{
					id:     uint64(i + 1),
					amount: uint64(rng.Intn(90000) + 1000),
					status: 0,
				}
				if _, _, err := w.PutU64(o.id, encode(o)); err != nil {
					log.Fatal(err)
				}
			}
		}(t)
	}
	wg.Wait()
	w := store.NewWorker(0)
	fmt.Printf("loaded %d orders\n", w.Count())

	// Point lookup: order status check.
	if v, ok := w.GetU64(4242); ok {
		fmt.Printf("order 4242: amount=%d.%02d status=%d\n",
			amount(v)/100, amount(v)%100, status(v))
	}

	// Ship a batch of orders (updates).
	for id := uint64(100); id < 200; id++ {
		if v, ok := w.GetU64(id); ok {
			w.PutU64(id, v&^uint64(0xff)|1) // status=shipped
		}
	}

	// Range scan: revenue report over an ID window (e.g. one shard).
	var revenue, shipped, count uint64
	w.ScanU64(100, 299, func(k, v uint64) bool {
		revenue += amount(v)
		if status(v) == 1 {
			shipped++
		}
		count++
		return true
	})
	fmt.Printf("orders 100..299: %d orders, %d shipped, revenue %d.%02d\n",
		count, shipped, revenue/100, revenue%100)

	// Cancel an order (delete from the index).
	w.RemoveU64(150)

	// Mid-day crash: the index needs no rebuild — reattach and continue.
	store2, err := store.Reopen()
	if err != nil {
		log.Fatal(err)
	}
	w2 := store2.NewWorker(0)
	if _, ok := w2.GetU64(150); ok {
		log.Fatal("cancelled order came back")
	}
	if v, ok := w2.GetU64(101); !ok || status(v) != 1 {
		log.Fatal("shipped order lost its status")
	}
	fmt.Printf("after crash+reopen: %d orders still indexed, no rebuild needed\n", w2.Count())

	// Business continues immediately.
	w2.PutU64(orders+1, encode(order{id: orders + 1, amount: 5000}))
	fmt.Println("new order accepted post-recovery")
}
