package crash

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upskiplist"
	"upskiplist/internal/alloc"
	"upskiplist/internal/epoch"
	"upskiplist/internal/lincheck"
)

// replay is a red trial's config, as its evidence logs it (TestReplayTrial).
var replay = flag.String("replay", "", "JSON config of a crash trial for TestReplayTrial to run again")

// replayConfig is what a red trial writes and TestReplayTrial reads.
type replayConfig struct {
	Durable bool
	Trial   TrialConfig
}

// A trial check returns the reason a finished trial is red, or nil.
func linearizable(res *TrialResult) error { return res.History.Check() }

func invariants(res *TrialResult) error {
	if err := res.Store.NewWorker(0).CheckInvariants(); err != nil {
		return fmt.Errorf("post-recovery invariants: %w", err)
	}
	return nil
}

// trial runs one crash trial (RunDurableTrial when durable) and fails t
// if a worker panicked or any check fails, after keeping the evidence.
func trial(t *testing.T, label string, cfg TrialConfig, durable bool, checks ...func(*TrialResult) error) *TrialResult {
	t.Helper()
	run := RunTrial
	if durable {
		run = RunDurableTrial
	}
	res, err := run(cfg)
	for _, check := range checks {
		if err != nil {
			break
		}
		err = check(res)
	}
	if err != nil {
		keepEvidence(t, cfg, durable, res, err)
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// keepEvidence writes a red trial's config and the failing key's history
// (every operation on it, with its thread, era and times, and the crash
// points) to config.json and history.txt under t.TempDir(), logs the
// history and a one-line command that runs the config again, and returns
// the directory. The interleaving is not recorded: a replay fails at the
// rate its config does.
func keepEvidence(t *testing.T, cfg TrialConfig, durable bool, res *TrialResult, err error) string {
	t.Helper()
	dir := t.TempDir()
	conf, jerr := json.Marshal(replayConfig{Durable: durable, Trial: cfg})
	if jerr != nil {
		t.Fatal(jerr)
	}
	var b strings.Builder
	var v *lincheck.Violation
	var p *WorkerPanic
	key, keyed := uint64(0), true
	switch {
	case errors.As(err, &v):
		key = v.Key
	case errors.As(err, &p):
		key = p.Key
	default:
		keyed = false
	}
	if res != nil && keyed {
		fmt.Fprintf(&b, "key %d; crashes at %v\n", key, res.History.Crashes())
		for _, op := range res.History.Ops() {
			if op.Key != key {
				continue
			}
			kind, end := "write", fmt.Sprint(op.End)
			if op.Kind == lincheck.KindRead {
				kind = "read"
			}
			if op.Pending() {
				end = "pending"
			}
			fmt.Fprintf(&b, "op %d thread %d era %d %s value %d observed %d start %d end %s\n",
				op.ID, op.Worker, op.Era, kind, op.Value, op.Observed, op.Start, end)
		}
	}
	for name, data := range map[string][]byte{"config.json": conf, "history.txt": []byte(b.String())} {
		if werr := os.WriteFile(filepath.Join(dir, name), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
	}
	t.Logf("red trial; config and history in %s:\n%s", dir, b.String())
	t.Logf("replay: go test ./internal/crash/ -run '^TestReplayTrial$' -count=1 -args -replay='%s'", conf)
	return dir
}

// TestReplayTrial runs the trial config a red trial logged, with the
// checks every battery trial makes. Without -replay it has nothing to do.
func TestReplayTrial(t *testing.T) {
	if *replay == "" {
		t.Skip("no -replay config")
	}
	var rc replayConfig
	if err := json.Unmarshal([]byte(*replay), &rc); err != nil {
		t.Fatal(err)
	}
	trial(t, "replay", rc.Trial, rc.Durable, linearizable, invariants)
}

// TestPostRecoveryPanicFailsTheTrial: a panic in a post-recovery worker
// (the battery's `riv: resolving null pointer` family) stops that worker
// and fails the trial with a *WorkerPanic that names the worker and key,
// the history kept, where it used to kill the test binary; the evidence
// of the red trial is its config and the key's history.
func TestPostRecoveryPanicFailsTheTrial(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 15000
	cfg.postOp = func(worker int, key uint64) {
		if worker == 3 {
			var p *TrialResult
			_ = p.Store // a nil dereference, as in the battery's panic
		}
	}
	res, err := RunTrial(cfg)
	var p *WorkerPanic
	if !errors.As(err, &p) || p.Worker != 3 || p.Phase != "post-recovery" || res == nil {
		t.Fatalf("RunTrial = (%v, %v), want the result and worker 3's post-recovery panic", res, err)
	}
	if !strings.Contains(p.Error(), "nil pointer") {
		t.Fatalf("the panic lost its cause: %v", p)
	}
	if res.OpsAfter < (cfg.Workers-1)*cfg.PostOps {
		t.Fatalf("%d post-recovery ops; the other workers did not run on", res.OpsAfter)
	}
	dir := keepEvidence(t, cfg, false, res, err)
	conf, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rc replayConfig
	if err := json.Unmarshal(conf, &rc); err != nil || rc.Durable || rc.Trial.CrashAfter != cfg.CrashAfter || rc.Trial.Options != cfg.Options {
		t.Fatalf("config.json %s does not give back the trial's config (%v)", conf, err)
	}
	hist, err := os.ReadFile(filepath.Join(dir, "history.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(hist)), "\n")
	if want := fmt.Sprintf("key %d; crashes at ", p.Key); !strings.HasPrefix(lines[0], want) || len(lines) < 2 {
		t.Fatalf("history.txt does not open with the key and crash points:\n%s", hist)
	}
	ops := 0
	for _, op := range res.History.Ops() {
		if op.Key == p.Key {
			ops++
		}
	}
	if len(lines)-1 != ops {
		t.Fatalf("history.txt lists %d ops, the history has %d on key %d", len(lines)-1, ops, p.Key)
	}
}

func TestAbortTrialLinearizable(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.Mode = Abort
	cfg.CrashAfter = 20000
	res := trial(t, "abort trial", cfg, false, linearizable, invariants)
	if res.OpsPending == 0 {
		t.Log("warning: no operations were pending at the crash")
	}
}

func TestPowerFailureTrialLinearizable(t *testing.T) {
	cfg := DefaultTrialConfig()
	res := trial(t, "power-failure trial", cfg, false, linearizable, invariants)
	if res.OpsAfter == 0 {
		t.Fatal("no post-recovery operations ran")
	}
}

// TestManyPowerFailureTrials is the scaled-down Chapter 6 battery: many
// crash points, all histories strictly linearizable.
func TestManyPowerFailureTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash battery")
	}
	crashPoints := []int64{3000, 7000, 12000, 19000, 27000, 41000, 60000, 85000}
	for _, after := range crashPoints {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = after
		cfg.PostOps = 200
		trial(t, fmt.Sprintf("crash@%d", after), cfg, false, linearizable, invariants)
	}
}

// TestAnalyzerDetectsTamperedHistory reproduces §6.3's sanity check: the
// analyzer must flag histories with artificially corrupted reads.
func TestAnalyzerDetectsTamperedHistory(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 15000
	res := trial(t, "trial", cfg, false)
	ops := res.History.Ops()
	// Corrupt one completed read to observe a never-written value.
	tampered := lincheck.NewHistory()
	done := false
	for _, op := range ops {
		if !done && op.Kind == lincheck.KindRead && !op.Pending() {
			op.Observed = ^uint64(0) >> 3 // never written
			done = true
		}
		tampered.Record(op)
	}
	if !done {
		t.Skip("history had no completed reads to tamper with")
	}
	if err := tampered.Check(); err == nil {
		t.Fatal("analyzer did not detect tampered history")
	}
}

// TestEvictionPowerFailureTrials models spontaneous cache evictions: an
// unflushed line may have reached the persistence domain anyway. RECIPE
// conversions depend only on flush ordering between dependent writes, so
// strict linearizability must survive any eviction pattern.
func TestEvictionPowerFailureTrials(t *testing.T) {
	for i, prob := range []float64{0.25, 0.5, 0.9} {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = 20000 + int64(i)*7000
		cfg.EvictProb = prob
		cfg.Seed = uint64(i) + 1
		trial(t, fmt.Sprintf("p=%v", prob), cfg, false, linearizable, invariants)
	}
}

func TestTrialStatsPlausible(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 25000
	res := trial(t, "trial", cfg, false)
	if res.OpsBefore <= int(cfg.Preload) {
		t.Fatalf("only %d ops before crash", res.OpsBefore)
	}
	if res.OpsPending > cfg.Workers {
		t.Fatalf("%d pending ops for %d workers", res.OpsPending, cfg.Workers)
	}
	if cfg.Mode == PowerFailure && res.LinesReverted == 0 {
		t.Log("warning: power failure reverted no lines (workload may have persisted everything)")
	}
	// The trial's writes went through both publish paths: the post-crash
	// phase alone put chunks into the slab and retired them, and a third
	// of what it wrote needed none.
	s := res.Store.SlabStats()
	writes := uint64(float64(cfg.PostOps*cfg.Workers) * (1 - cfg.ReadFraction))
	if s.ChunksAlloced < writes/2 || s.ChunksAlloced > writes*5/6 || s.ChunksRetired == 0 {
		t.Fatalf("about %d post-crash writes allocated %d chunks and retired %d; want two in three out of line", writes, s.ChunksAlloced, s.ChunksRetired)
	}
}

// TestValueEncodingCoversRepresentations: consecutive ids cycle through
// an inline word, a ref-shaped 8-byte word and a 24-byte value — stored
// by the trial's store in its node word, in one chunk and in one chunk —
// each decodes back to its id, and damaged bytes decode to an
// observation no write produced.
func TestValueEncodingCoversRepresentations(t *testing.T) {
	st, err := upskiplist.Create(DefaultTrialConfig().Options)
	if err != nil {
		t.Fatal(err)
	}
	w := st.NewWorker(0)
	var buf [24]byte
	for id := uint64(1); id < 3000; id++ {
		b := valueBytes(id, &buf)
		before := st.SlabStats().ChunksAlloced
		if _, _, err := w.Put(id%500+1, b); err != nil {
			t.Fatal(err)
		}
		chunks := st.SlabStats().ChunksAlloced - before
		switch id % 3 {
		case 0:
			if len(b) != 8 || chunks != 0 {
				t.Fatalf("id %d: %x took %d chunks, want an inline word", id, b, chunks)
			}
		case 1:
			if len(b) != 8 || chunks != 1 {
				t.Fatalf("id %d: %x took %d chunks, want a ref-shaped word in one", id, b, chunks)
			}
		default:
			if len(b) != 24 || chunks != 1 {
				t.Fatalf("id %d: %d bytes in %d chunks", id, len(b), chunks)
			}
		}
		if got := valueID(b); got != id {
			t.Fatalf("valueID(valueBytes(%d)) = %d", id, got)
		}
		b[len(b)-1] ^= 1
		if got := valueID(b); got != tornMarker {
			t.Fatalf("id %d with a flipped bit decodes to %d", id, got)
		}
	}
	if valueID(nil) != tornMarker || valueID(make([]byte, 16)) != tornMarker {
		t.Fatal("a value of the wrong length decodes to an id")
	}
}

// TestDurableHistoryTrials reproduces §6.1.1's full instrumentation: the
// operation log itself lives in (crash-tracked) persistent memory and
// the analyzer's history is rebuilt from whatever survived the failure.
func TestDurableHistoryTrials(t *testing.T) {
	for i, after := range []int64{8000, 20000, 45000} {
		cfg := DefaultTrialConfig()
		cfg.CrashAfter = after
		cfg.Seed = uint64(i)
		res := trial(t, fmt.Sprintf("crash@%d", after), cfg, true, linearizable, invariants)
		if res.OpsAfter == 0 {
			t.Fatalf("crash@%d: no post-recovery records", after)
		}
	}
}

// TestDurableHistoryWithEviction combines durable instrumentation with
// the cache-eviction failure model.
func TestDurableHistoryWithEviction(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.CrashAfter = 25000
	cfg.EvictProb = 0.5
	cfg.Seed = 7
	trial(t, "trial", cfg, true, linearizable)
}

// TestMultiEraTrials runs several crash-recover cycles in one trial:
// epochs, allocation logs and lock stamps must compose across repeated
// failures, and the whole multi-era history must stay strictly
// linearizable.
func TestMultiEraTrials(t *testing.T) {
	for _, eras := range []int{2, 3, 4} {
		cfg := DefaultTrialConfig()
		cfg.Eras = eras
		cfg.CrashAfter = 15000
		cfg.PostOps = 150
		res := trial(t, fmt.Sprintf("eras=%d", eras), cfg, false, linearizable, invariants)
		if e := epoch.Attach(res.Store.ShardPools(0)[0], alloc.EpochOff).Current(); e != uint64(eras)+1 {
			t.Fatalf("eras=%d: epoch = %d, want %d", eras, e, eras+1)
		}
	}
}
