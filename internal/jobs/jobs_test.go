package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"reramsim/internal/atomicio"
	"reramsim/internal/par"
)

// grid builds n cells whose payload is a pure function of the key.
func grid(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		key := fmt.Sprintf("cell-%02d", i)
		cells[i] = Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			return []byte("payload for " + key), nil
		}}
	}
	return cells
}

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunWithoutJournal(t *testing.T) {
	e := mustOpen(t, Options{})
	rep, err := e.Run(context.Background(), grid(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 5 || len(rep.Executed) != 5 || len(rep.Resumed) != 0 || !rep.Complete() {
		t.Fatalf("report: %+v", rep)
	}
	if string(rep.Done["cell-03"]) != "payload for cell-03" {
		t.Fatalf("payload: %q", rep.Done["cell-03"])
	}
}

func TestJournalAndResume(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "d1"})
	if _, err := e.Run(context.Background(), grid(6)); err != nil {
		t.Fatal(err)
	}
	segs, _ := segFiles(dir)
	if len(segs) != 6 {
		t.Fatalf("expected one segment per cell, got %d", len(segs))
	}

	// A second engine resuming the same digest must skip every cell.
	calls := 0
	cells := grid(6)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(ctx context.Context) ([]byte, error) { calls++; return inner(ctx) }
	}
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d1", Resume: true})
	rep, err := e2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("resume ran %d cells, want 0", calls)
	}
	if len(rep.Resumed) != 6 || len(rep.Executed) != 0 {
		t.Fatalf("resumed=%v executed=%v", rep.Resumed, rep.Executed)
	}
	if string(rep.Done["cell-05"]) != "payload for cell-05" {
		t.Fatalf("resumed payload: %q", rep.Done["cell-05"])
	}
}

func TestResumeDigestMismatchColdStarts(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "old"})
	if _, err := e.Run(context.Background(), grid(3)); err != nil {
		t.Fatal(err)
	}
	e2 := mustOpen(t, Options{Dir: dir, Digest: "new", Resume: true})
	rep, err := e2.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 0 || len(rep.Executed) != 3 {
		t.Fatalf("stale journal was resumed: %+v", rep)
	}
}

func TestPanicQuarantinesCellNotGrid(t *testing.T) {
	dir := t.TempDir()
	cells := grid(5)
	cells[2].Run = func(ctx context.Context) ([]byte, error) { panic("cell exploded") }
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() || len(rep.Quarantined) != 1 || len(rep.Executed) != 4 {
		t.Fatalf("report: %+v", rep)
	}
	q := rep.Quarantined[0]
	if q.Key != "cell-02" || q.Reason != "panic" {
		t.Fatalf("quarantine: %+v", q)
	}
	var pe *ErrCellPanic
	if !errors.As(q.Err, &pe) || pe.Value != "cell exploded" || !strings.Contains(q.Stack, "jobs.") {
		t.Fatalf("typed panic error missing: %#v", q.Err)
	}
	if rep.ExitCode(nil) != ExitPartial {
		t.Fatalf("exit code %d, want %d", rep.ExitCode(nil), ExitPartial)
	}

	// The quarantine record (with stack) must be on disk...
	_, quarantined, _, ok := loadJournal(dir, "d")
	if !ok || quarantined["cell-02"].Reason != "panic" ||
		!strings.Contains(quarantined["cell-02"].Stack, "jobs.") {
		t.Fatalf("journaled quarantine: ok=%v %+v", ok, quarantined["cell-02"])
	}

	// ...and a resume must re-run only the quarantined cell, healing the
	// grid once the panic is gone.
	fixed := grid(5)
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep2, err := e2.Run(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 4 || len(rep2.Executed) != 1 || rep2.Executed[0] != "cell-02" || !rep2.Complete() {
		t.Fatalf("healing resume: %+v", rep2)
	}
}

func TestInjectedPanicHook(t *testing.T) {
	e := mustOpen(t, Options{TestPanicKey: "cell-01"})
	rep, err := e.Run(context.Background(), grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Key != "cell-01" || rep.Quarantined[0].Reason != "panic" {
		t.Fatalf("report: %+v", rep)
	}
}

func TestTransientRetryWithBackoff(t *testing.T) {
	var fails atomic.Int64
	fails.Store(2)
	var slept []time.Duration
	cells := grid(2)
	cells[1].Run = func(ctx context.Context) ([]byte, error) {
		if fails.Add(-1) >= 0 {
			return nil, Transient(errors.New("journal contention"))
		}
		return []byte("ok after retries"), nil
	}
	e := mustOpen(t, Options{
		MaxRetries: 3,
		sleep:      func(ctx context.Context, d time.Duration) { slept = append(slept, d) },
	})
	par1(t)
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Retries != 2 || string(rep.Done["cell-01"]) != "ok after retries" {
		t.Fatalf("report: %+v", rep)
	}
	if len(slept) != 2 || slept[0] <= 0 {
		t.Fatalf("backoff sleeps: %v", slept)
	}
	if slept[0] == slept[1] {
		t.Fatalf("no growth/jitter across attempts: %v", slept)
	}
}

func TestTransientExhaustionQuarantines(t *testing.T) {
	cells := grid(1)
	cells[0].Run = func(ctx context.Context) ([]byte, error) {
		return nil, Transient(errors.New("always down"))
	}
	e := mustOpen(t, Options{MaxRetries: 2, sleep: func(context.Context, time.Duration) {}})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 2 || len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "error" {
		t.Fatalf("report: %+v retries=%d", rep.Quarantined, rep.Retries)
	}
}

func TestNonTransientErrorQuarantinesWithoutRetry(t *testing.T) {
	cells := grid(2)
	cells[0].Run = func(ctx context.Context) ([]byte, error) {
		return nil, errors.New("deterministic model error")
	}
	e := mustOpen(t, Options{MaxRetries: 5, sleep: func(context.Context, time.Duration) {}})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 || len(rep.Quarantined) != 1 || len(rep.Executed) != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestCellTimeout(t *testing.T) {
	cells := grid(3)
	cells[1].Run = func(ctx context.Context) ([]byte, error) {
		<-ctx.Done() // a hung solve that at least honours cancellation
		return nil, ctx.Err()
	}
	e := mustOpen(t, Options{CellTimeout: 50 * time.Millisecond})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "timeout" {
		t.Fatalf("report: %+v", rep.Quarantined)
	}
	var te *ErrCellTimeout
	if !errors.As(rep.Quarantined[0].Err, &te) || te.Key != "cell-01" {
		t.Fatalf("typed timeout missing: %#v", rep.Quarantined[0].Err)
	}
	if !errors.Is(rep.Quarantined[0].Err, context.DeadlineExceeded) {
		t.Fatal("timeout should match context.DeadlineExceeded")
	}
	if len(rep.Executed) != 2 {
		t.Fatalf("grid did not finish around the timeout: %+v", rep)
	}
}

func TestCancelFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cause := &InterruptError{Sig: os.Interrupt}

	var completed atomic.Int64
	cells := grid(8)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(c context.Context) ([]byte, error) {
			p, err := inner(c)
			if completed.Add(1) == 3 {
				cancel(cause) // hard in-process cancel after 3 cells
			}
			return p, err
		}
	}
	par1(t)
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	rep, err := e.Run(ctx, cells)
	if err == nil || !errors.Is(err, cause) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped interrupt cause", err)
	}
	if rep.ExitCode(err) != ExitInterrupted {
		t.Fatalf("exit code %d, want %d", rep.ExitCode(err), ExitInterrupted)
	}
	done, _, _, ok := loadJournal(dir, "d")
	if !ok || len(done) != 3 {
		t.Fatalf("journal after cancel: ok=%v done=%d want 3", ok, len(done))
	}

	// Resume finishes exactly the remaining cells.
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep2, err := e2.Run(context.Background(), grid(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Resumed) != 3 || len(rep2.Executed) != 5 || !rep2.Complete() {
		t.Fatalf("resume: resumed=%d executed=%d", len(rep2.Resumed), len(rep2.Executed))
	}
}

func TestStallWatchdogFlagsHungCell(t *testing.T) {
	release := make(chan struct{})
	cells := grid(4)
	cells[3].Run = func(ctx context.Context) ([]byte, error) {
		<-release // hung: no heartbeat, no progress
		return []byte("eventually"), nil
	}
	e := mustOpen(t, Options{
		WatchdogFloor: 80 * time.Millisecond,
		WatchdogPoll:  10 * time.Millisecond,
	})
	go func() {
		time.Sleep(400 * time.Millisecond)
		close(release)
	}()
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 1 || rep.Stalled[0] != "cell-03" {
		t.Fatalf("stalled = %v, want [cell-03]", rep.Stalled)
	}
	// The stall flag is advisory: the cell still completed.
	if !rep.Complete() || string(rep.Done["cell-03"]) != "eventually" {
		t.Fatalf("hung cell result: %+v", rep)
	}
}

func TestHeartbeatSuppressesStallFlag(t *testing.T) {
	cells := grid(1)
	cells[0].Run = func(ctx context.Context) ([]byte, error) {
		hb := HeartbeatFunc(ctx)
		if hb == nil {
			return nil, errors.New("no heartbeat bound")
		}
		for i := 0; i < 30; i++ { // slow (300ms) but visibly alive
			time.Sleep(10 * time.Millisecond)
			hb()
		}
		return []byte("slow but moving"), nil
	}
	e := mustOpen(t, Options{
		WatchdogFloor: 100 * time.Millisecond,
		WatchdogPoll:  10 * time.Millisecond,
	})
	rep, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("heartbeating cell flagged as stalled: %v", rep.Stalled)
	}
}

func TestCorruptSegmentDegrades(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, Options{Dir: dir, Digest: "d"})
	if _, err := e.Run(context.Background(), grid(4)); err != nil {
		t.Fatal(err)
	}
	segs, _ := segFiles(dir)
	blob, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-5] ^= 0xff // flip a payload bit
	if err := os.WriteFile(segs[1], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	done, _, _, ok := loadJournal(dir, "d")
	if !ok {
		t.Fatal("one corrupt segment must not kill the whole journal")
	}
	if len(done) != 3 {
		t.Fatalf("replayed %d cells, want 3 (corrupt one dropped)", len(done))
	}
	// And the engine resumes the survivors, re-running the lost cell.
	e2 := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep, err := e2.Run(context.Background(), grid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 3 || len(rep.Executed) != 1 || !rep.Complete() {
		t.Fatalf("resume after corruption: %+v", rep)
	}
}

func TestMissingManifestColdStarts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := mustOpen(t, Options{Dir: dir, Digest: "d", Resume: true})
	rep, err := e.Run(context.Background(), grid(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resumed) != 0 || len(rep.Executed) != 2 {
		t.Fatalf("corrupt manifest not treated as cold start: %+v", rep)
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	e := mustOpen(t, Options{})
	cells := grid(2)
	cells[1].Key = cells[0].Key
	if _, err := e.Run(context.Background(), cells); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// par1 pins the worker pool to one worker for tests needing a
// deterministic completion order, restoring the default afterwards.
func par1(t *testing.T) {
	t.Helper()
	par.SetJobs(1)
	t.Cleanup(func() { par.SetJobs(0) })
}

// TestManifestDiskFullRetried: a disk-full fsync on the journal's first
// write (the manifest) backs off and retries instead of aborting Open,
// even with per-cell retries off (MaxRetries 0, the CLIs' setting); a
// disk that stays full still fails Open, with the typed disk-full error,
// once the retries are spent.
func TestManifestDiskFullRetried(t *testing.T) {
	var fails atomic.Int64
	prev := atomicio.SetHook(func(dest, stage string) error {
		if stage == atomicio.StageSync && filepath.Base(dest) == manifestName && fails.Add(-1) >= 0 {
			return syscall.ENOSPC
		}
		return nil
	})
	defer atomicio.SetHook(prev)

	var slept []time.Duration
	sleep := func(ctx context.Context, d time.Duration) { slept = append(slept, d) }
	fails.Store(2)
	e := mustOpen(t, Options{Dir: t.TempDir(), Digest: "d", sleep: sleep})
	if e.j == nil || len(slept) != 2 {
		t.Fatalf("journal %v after %d backoff sleeps; want a journal after 2", e.j, len(slept))
	}
	rep, err := e.Run(context.Background(), grid(2))
	if err != nil || !rep.Complete() {
		t.Fatalf("run after retried manifest: %+v, %v", rep, err)
	}

	fails.Store(1 << 30)
	slept = nil
	_, err = Open(Options{Dir: t.TempDir(), Digest: "d", sleep: sleep})
	if err == nil || !atomicio.IsDiskFull(err) || len(slept) != manifestRetries {
		t.Fatalf("Open on a full disk: %v after %d sleeps; want a typed disk-full error after %d", err, len(slept), manifestRetries)
	}
}
