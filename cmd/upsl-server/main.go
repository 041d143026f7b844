// Command upsl-server serves an upskiplist store over TCP with the wire
// protocol (internal/wire): pipelined GET/PUT/DEL/SCAN/BATCH requests,
// each connection group-committing the requests it drained in one pass
// (internal/server), plus
// SNAP_SCAN/SNAP_RELEASE frozen-snapshot paging under TTL leases
// (-snap-ttl).
//
// Usage:
//
//	upsl-server -addr 127.0.0.1:7845 -dir /var/lib/upsl -shards 4
//
// If -dir holds a previously saved store it is recovered via Load
// (epoch advance, lazy repairs); otherwise a fresh store is created
// and, on graceful shutdown (SIGINT/SIGTERM), durably saved there.
// With no -dir the store is purely in-memory and nothing persists
// across runs.
//
// A sidecar HTTP listener (-metrics-addr, default 127.0.0.1:7846)
// serves /metrics (Prometheus text: per-op-kind engine latency
// histograms, drain queue-wait/apply/drain-size, request counters)
// and /healthz (503 until the store is loaded and the server accepts;
// /healthz?probe=live answers liveness instead). Empty -metrics-addr
// disables the sidecar.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"upskiplist"
	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/metrics"
	"upskiplist/internal/server"
	"upskiplist/internal/wire"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7845", "listen address")
		dir           = flag.String("dir", "", "store directory: Load on start if present, Save on graceful shutdown")
		shards        = flag.Int("shards", 4, "keyspace shards for a newly created store")
		poolMB        = flag.Int("pool-mb", 64, "per-shard pool size in MiB for a newly created store")
		maxConns      = flag.Int("max-conns", 64, "connection limit (also bounded by the store's thread budget)")
		pipeline      = flag.Int("pipeline", 64, "max frames a connection drains per pass (one group commit)")
		maxValue      = flag.Int("max-value", wire.MaxValue, "max PUT value size in bytes (oversize requests get TOO_LARGE)")
		statsInterval = flag.Duration("stats-interval", 10*time.Second, "periodic stats log interval (0 disables)")
		metricsAddr   = flag.String("metrics-addr", "127.0.0.1:7846", "sidecar HTTP address for /metrics and /healthz (empty disables)")
		onlineReclaim = flag.Bool("online-reclaim", false, "retire fully-tombstoned nodes as removes empty them, freeing their blocks by grace period while serving")
		snapTTL       = flag.Duration("snap-ttl", 30*time.Second, "idle TTL of wire snapshot leases (SNAP_SCAN); an expired lease unpins its era for reclamation")
	)
	flag.Parse()

	// The observability sidecar comes up before the store loads so a
	// long recovery is visible: /metrics scrapes work immediately and
	// /healthz answers 503 until the store is loaded and serving.
	reg := metrics.NewRegistry()
	var srv atomic.Pointer[server.Server] // set once serving
	if *metricsAddr != "" {
		mln, err := startSidecar(*metricsAddr, reg,
			func() bool { s := srv.Load(); return s != nil && s.Ready() },
			func() bool { s := srv.Load(); return s == nil || s.Live() })
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		logf("metrics on http://%s/metrics, health on http://%s/healthz", mln.Addr(), mln.Addr())
	}

	st, created, err := openStore(*dir, *shards, *poolMB)
	if err != nil {
		fatalf("%v", err)
	}
	st.EnableMetrics(reg)
	if *onlineReclaim {
		// OnlineReclaim is volatile configuration, so a Load-ed store
		// needs this explicit enable too.
		st.EnableOnlineReclaim()
		logf("online reclamation enabled")
	}
	if *dir != "" {
		if created {
			logf("created fresh store (shards=%d) — will save to %s on shutdown", st.NumShards(), *dir)
		} else {
			rec := st.RecoveryStats()
			logf("recovered store from %s (shards=%d, epoch=%d): time-to-ready=%v attach=%v open=%v sweep=%v bulkload=%v keys-loaded=%d",
				*dir, st.NumShards(), storeEpoch(st), rec.Wall,
				rec.Attach, rec.Open, rec.Sweep, rec.BulkLoad, rec.KeysBulkLoaded)
		}
	}

	s, err := server.New(server.Config{
		Store:         st,
		MaxConns:      *maxConns,
		MaxPipeline:   *pipeline,
		MaxValue:      *maxValue,
		Dir:           *dir,
		SnapTTL:       *snapTTL,
		StatsInterval: *statsInterval,
		Metrics:       reg,
		Logf:          logf,
	})
	if err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	s.Serve(ln)
	srv.Store(s) // /healthz flips to ready: store loaded, accept loop up
	logf("serving on %s (shards=%d, max-conns=%d, pipeline=%d)",
		ln.Addr(), st.NumShards(), *maxConns, *pipeline)

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigC
	logf("received %v: draining and shutting down", sig)
	if err := s.Shutdown(); err != nil {
		fatalf("shutdown: %v", err)
	}
	if *dir != "" {
		logf("store saved to %s", *dir)
	}
	logf("bye")
}

// startSidecar serves /metrics and /healthz on addr. The health
// endpoint defaults to the readiness probe (store loaded, accept loop
// up); ?probe=live asks only whether the serving machinery is healthy,
// so an orchestrator keeps a draining server alive but routes no new
// traffic to it.
func startSidecar(addr string, reg *metrics.Registry, ready, live func() bool) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ok, probe := ready(), "ready"
		if r.URL.Query().Get("probe") == "live" {
			ok, probe = live(), "live"
		}
		if !ok {
			http.Error(w, "not "+probe, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, probe+"\n")
	})
	go http.Serve(ln, mux)
	return ln, nil
}

// openStore loads dir if it holds a saved store, otherwise creates a
// fresh one sized by the flags.
func openStore(dir string, shards, poolMB int) (*upskiplist.Store, bool, error) {
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, "meta.upsl")); err == nil {
			st, err := upskiplist.Load(dir)
			if err != nil {
				return nil, false, fmt.Errorf("loading store from %s: %w", dir, err)
			}
			return st, false, nil
		}
	}
	o := upskiplist.DefaultOptions()
	o.Shards = shards
	o.PoolWords = uint64(poolMB) << 17 // MiB -> 8-byte words
	o.ChunkWords = 1 << 14
	o.MaxChunks = o.PoolWords/o.ChunkWords + 16
	st, err := upskiplist.Create(o)
	if err != nil {
		return nil, false, fmt.Errorf("creating store: %w", err)
	}
	return st, true, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, time.Now().Format("15:04:05.000")+" "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "upsl-server: "+format+"\n", args...)
	os.Exit(1)
}

// storeEpoch returns the highest failure-free epoch over the store's
// shards. Each shard keeps its own clock in a word of its first pool;
// they advance together when the store is reopened whole.
func storeEpoch(st *upskiplist.Store) uint64 {
	var max uint64
	for i := 0; i < st.NumShards(); i++ {
		if e := epoch.Attach(st.ShardPools(i)[0], alloc.EpochOff).Current(); e > max {
			max = e
		}
	}
	return max
}
