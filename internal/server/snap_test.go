package server

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"upskiplist"
	"upskiplist/internal/metrics"
	"upskiplist/internal/wire"
)

// TestServerSnapshotFrozenPaging opens a wire snapshot, mutates the
// store through the same connection, and checks the paged snapshot scan
// still returns the pre-snapshot state — across page boundaries.
func TestServerSnapshotFrozenPaging(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)

	const n = 500
	for i := uint64(1); i <= n; i++ {
		if _, _, err := c.PutU64NoCtx(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := c.SnapshotNoCtx()
	if err != nil {
		t.Fatal(err)
	}
	if sn.ID() == 0 {
		t.Fatal("lease id 0")
	}
	// Rewrite the world after the snapshot.
	for i := uint64(1); i <= n; i++ {
		if _, _, err := c.PutU64NoCtx(i, 7); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.PutU64NoCtx(n+50, 1); err != nil {
		t.Fatal(err)
	}

	// Page with a tiny page size to cross many boundaries.
	var got []wire.Pair
	lo := uint64(1)
	for {
		page, err := sn.Scan(context.Background(), lo, ^uint64(0)-1, 64)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if len(page) < 64 {
			break
		}
		lo = page[len(page)-1].Key + 1
	}
	if len(got) != n {
		t.Fatalf("snapshot paged scan returned %d pairs, want %d", len(got), n)
	}
	for i, p := range got {
		want := uint64(i + 1)
		if p.Key != want || leU64(p.Value) != want*3 {
			t.Fatalf("pair %d = %+v, want {%d %d}", i, p, want, want*3)
		}
	}
	// ScanAll agrees.
	m := 0
	if err := sn.ScanAll(context.Background(), 1, ^uint64(0)-1, func(k uint64, v []byte) bool {
		m++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("ScanAll visited %d, want %d", m, n)
	}

	if ok, err := sn.ReleaseNoCtx(); err != nil || !ok {
		t.Fatalf("release = %v, %v", ok, err)
	}
	if ok, err := sn.ReleaseNoCtx(); err != nil || ok {
		t.Fatalf("double release = %v, %v (want false)", ok, err)
	}
	// A released lease no longer pages.
	if _, err := sn.Scan(context.Background(), 1, 10, 10); err == nil {
		t.Fatal("scan on released lease succeeded")
	}
}

// TestServerSnapshotLeaseExpiry opens a wire snapshot and abandons it,
// as a client that died mid-scan does. While the lease is held the
// writes after it keep their prior values in the version log, which the
// metrics registry shows; the janitor must expire the lease within about
// one TTL, and both gauges must read 0 again.
func TestServerSnapshotLeaseExpiry(t *testing.T) {
	st, err := upskiplist.Create(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	st.EnableMetrics(reg)
	s, addr := newTestServer(t, Config{Store: st, Metrics: reg, SnapTTL: time.Second})
	c := dialT(t, addr)
	for i := uint64(1); i <= 100; i++ {
		if _, _, err := c.PutU64NoCtx(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SnapshotNoCtx(); err != nil {
		t.Fatal(err)
	}
	if s.Store().SnapshotsOpen() != 1 || s.leases.Len() != 1 {
		t.Fatalf("open=%d leases=%d after open", s.Store().SnapshotsOpen(), s.leases.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		if _, _, err := c.PutU64NoCtx(i, 7); err != nil {
			t.Fatal(err)
		}
	}
	gauges := func() (open, logged float64) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			name, v, _ := strings.Cut(line, " ")
			f, _ := strconv.ParseFloat(v, 64)
			switch name {
			case "upsl_snapshots_open":
				open = f
			case "upsl_snapshot_log_entries":
				logged = f
			}
		}
		return open, logged
	}
	if open, logged := gauges(); open != 1 || logged == 0 {
		t.Fatalf("lease held: upsl_snapshots_open %v, upsl_snapshot_log_entries %v", open, logged)
	}
	// Crash the client: no release, no more touches.
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for open, logged := gauges(); open != 0 || logged != 0 || s.leases.Len() != 0; open, logged = gauges() {
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: upsl_snapshots_open %v, upsl_snapshot_log_entries %v, leases %d",
				open, logged, s.leases.Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerSnapshotUnknownLease checks paging a bogus lease id fails
// cleanly without killing the connection.
func TestServerSnapshotUnknownLease(t *testing.T) {
	_, addr := newTestServer(t, Config{})
	c := dialT(t, addr)
	call := c.Go(&wire.Request{Op: wire.OpSnapScan, Snap: 999, Lo: 1, Hi: 10, Limit: 10}, nil)
	cl := <-call.Done
	if cl.Err != nil {
		t.Fatal(cl.Err)
	}
	if cl.Resp.Status != wire.StatusErr {
		t.Fatalf("status = %v, want ERR", cl.Resp.Status)
	}
	// Connection still usable.
	if _, _, err := c.PutU64NoCtx(1, 1); err != nil {
		t.Fatal(err)
	}
}
