// Command upsl is a small interactive tool over a persisted UPSkipList
// store directory: create a store, run commands against it, save it, and
// reopen it later — demonstrating that the structure's entire state lives
// in the (simulated) persistent pools.
//
// Usage:
//
//	upsl -dir /tmp/mystore create [-keys-per-node 16] [-max-height 16]
//	upsl -dir /tmp/mystore put 42 1000
//	upsl -dir /tmp/mystore get 42
//	upsl -dir /tmp/mystore del 42
//	upsl -dir /tmp/mystore scan 10 50
//	upsl -dir /tmp/mystore stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"upskiplist"
	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
)

func main() {
	dir := flag.String("dir", "", "store directory")
	keysPerNode := flag.Int("keys-per-node", 16, "keys per node (create)")
	maxHeight := flag.Int("max-height", 16, "levels (create)")
	poolMiB := flag.Int("pool-mib", 32, "pool size in MiB (create)")
	flag.Parse()
	args := flag.Args()
	if *dir == "" || len(args) == 0 {
		usage()
	}

	cmd := args[0]
	if cmd == "create" {
		opts := upskiplist.DefaultOptions()
		opts.KeysPerNode = *keysPerNode
		opts.MaxHeight = *maxHeight
		opts.PoolWords = uint64(*poolMiB) << 17 // MiB -> 8-byte words
		opts.MaxChunks = opts.PoolWords/opts.ChunkWords + 16
		st, err := upskiplist.Create(opts)
		check(err)
		check(st.Save(*dir))
		fmt.Printf("created store in %s (maxHeight=%d keysPerNode=%d)\n",
			*dir, opts.MaxHeight, opts.KeysPerNode)
		return
	}

	st, err := upskiplist.Load(*dir)
	check(err)
	w := st.NewWorker(0)

	switch cmd {
	case "put":
		need(args, 3)
		k, v := parseU64(args[1]), parseU64(args[2])
		old, existed, err := w.PutU64(k, v)
		check(err)
		if existed {
			fmt.Printf("updated %d: %d -> %d\n", k, old, v)
		} else {
			fmt.Printf("inserted %d = %d\n", k, v)
		}
		check(st.Save(*dir))
	case "get":
		need(args, 2)
		k := parseU64(args[1])
		if v, ok := w.GetU64(k); ok {
			fmt.Println(v)
		} else {
			fmt.Println("(not found)")
		}
	case "del":
		need(args, 2)
		k := parseU64(args[1])
		old, existed, err := w.RemoveU64(k)
		check(err)
		if existed {
			fmt.Printf("removed %d (was %d)\n", k, old)
		} else {
			fmt.Println("(not found)")
		}
		check(st.Save(*dir))
	case "scan":
		need(args, 3)
		lo, hi := parseU64(args[1]), parseU64(args[2])
		n := 0
		check(w.ScanU64(lo, hi, func(k, v uint64) bool {
			fmt.Printf("%d\t%d\n", k, v)
			n++
			return true
		}))
		fmt.Printf("(%d keys)\n", n)
	case "compact":
		n, err := st.Compact()
		check(err)
		fmt.Printf("reclaimed %d nodes\n", n)
		check(st.Save(*dir))
	case "stats":
		for i := 0; i < st.NumShards(); i++ { // one failure-free clock per shard
			fmt.Printf("epoch: %d (shard %d)\n", epoch.Attach(st.ShardPools(i)[0], alloc.EpochOff).Current(), i)
		}
		fmt.Printf("live keys: %d\n", w.Count())
		rec := st.RecoveryStats()
		fmt.Printf("recovery: wall=%v (attach=%v open=%v sweep=%v bulkload=%v)\n",
			rec.Wall, rec.Attach, rec.Open, rec.Sweep, rec.BulkLoad)
		fmt.Printf("recovery work: pages-swept=%d chunks-relinked=%d keys-bulk-loaded=%d nodes-bulk-built=%d\n",
			rec.PagesSwept, rec.ChunksRelinked, rec.KeysBulkLoaded, rec.NodesBulkBuilt)
		r := st.DeferredRepairs()
		fmt.Printf("deferred repairs: claim=%d tower=%d split=%d split-keys-erased=%d\n", r.Claims, r.Inserts, r.Splits, r.SplitErased)
		c := st.BlockCensus()
		fmt.Printf("blocks: total=%d free=%d node=%d retired=%d slab=%d\n",
			c.Total, c.Free, c.Node, c.Retired, c.Slab)
		fmt.Printf("slab: %d extents\n", st.SlabStats().Extents)
		for _, cl := range st.SlabClassStats() {
			if cl.Pages > 0 {
				fmt.Printf("slab class %d words: %d pages of %d blocks, %d chunks each\n",
					cl.ChunkWords, cl.Pages, cl.SpanBlocks, cl.ChunksPerPage)
			}
		}
		for _, p := range st.Pools() {
			fmt.Printf("pool %d: %d words, %v\n", p.ID(), p.Size(), p.Stats().Snapshot())
		}
		if err := w.CheckInvariants(); err != nil {
			fmt.Printf("INVARIANT VIOLATION: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("invariants: ok")
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: upsl -dir DIR COMMAND
commands:
  create [-keys-per-node N] [-max-height H] [-pool-mib M]
  put KEY VALUE
  get KEY
  del KEY
  scan LO HI
  compact
  stats`)
	os.Exit(2)
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func parseU64(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "upsl: %v\n", err)
		os.Exit(1)
	}
}
