package core

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"reramsim/internal/obs"
	"reramsim/internal/solvecache"
	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// persistCfg is a small array so the calibrated test schemes build fast.
func persistCfg() xpoint.Config {
	cfg := xpoint.DefaultConfig()
	cfg.Size = 64
	return cfg
}

func persistOptions() Options {
	return Options{Array: persistCfg(), DRVR: true, UDRVR: true, PR: true}
}

// priceGrid prices a representative set of writes and returns the costs.
func priceGrid(t *testing.T, s *Scheme) []LineCost {
	t.Helper()
	cfg := s.Array().Config()
	var out []LineCost
	for _, mask := range []uint8{0x01, 0x81, 0x0f, 0xff} {
		var lw write.LineWrite
		for i := range lw.Arrays {
			lw.Arrays[i] = write.ArrayWrite{Reset: mask}
		}
		for _, row := range []int{0, cfg.Size / 2, cfg.Size - 1} {
			for _, off := range []int{0, cfg.MuxWidth() - 1} {
				c, err := s.CostWrite(row, off, lw)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// sameCosts compares two cost sets for exact (bit-level) equality.
func sameCosts(t *testing.T, label string, got, want []LineCost) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d costs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: cost %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
}

func sameLevels(t *testing.T, label string, got, want *LevelTable) {
	t.Helper()
	if got.Sections != want.Sections || got.Muxes != want.Muxes {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, got.Sections, got.Muxes, want.Sections, want.Muxes)
	}
	for s := range want.V {
		for m := range want.V[s] {
			if math.Float64bits(got.V[s][m]) != math.Float64bits(want.V[s][m]) {
				t.Errorf("%s: level [%d][%d] = %v, want %v", label, s, m, got.V[s][m], want.V[s][m])
			}
		}
	}
}

func TestLevelsEncodeDecode(t *testing.T) {
	want := FlatLevels(4, 8, 3.0)
	want.V[1][2] = 3.6600000001 // not representable exactly: bit fidelity matters
	want.V[3][7] = math.Nextafter(3.94, 0)
	got, ok := decodeLevels(encodeLevels(want), 4, 8)
	if !ok {
		t.Fatal("decodeLevels rejected its own encoding")
	}
	sameLevels(t, "round-trip", got, want)

	if _, ok := decodeLevels(encodeLevels(want)[:10], 4, 8); ok {
		t.Error("decodeLevels accepted a truncated payload")
	}
	if _, ok := decodeLevels(encodeLevels(want), 8, 4); ok {
		t.Error("decodeLevels accepted mismatched dimensions")
	}
	if _, ok := decodeLevels(nil, 4, 8); ok {
		t.Error("decodeLevels accepted an empty payload")
	}
}

func TestOptionsDigest(t *testing.T) {
	a := persistOptions()
	b := persistOptions()
	if optionsDigest(a) != optionsDigest(b) {
		t.Error("identical options digest differently")
	}
	b.PR = false
	if optionsDigest(a) == optionsDigest(b) {
		t.Error("PR toggle did not change the digest")
	}
	c := persistOptions()
	c.Array.Rwire *= 1.0000001
	if optionsDigest(a) == optionsDigest(c) {
		t.Error("array config change did not change the digest")
	}
}

// TestSchemeCacheByteIdentity is the end-to-end contract: costs priced
// with the cache off, cold, warm, and over a corrupted directory are all
// bit-identical, a warm directory preloads the memo before any pricing,
// and a warm re-pricing run never misses the memo.
func TestSchemeCacheByteIdentity(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	opt := persistOptions()

	// Reference: cache off.
	SetSolveCache(nil)
	ref, err := NewScheme("ref", opt)
	if err != nil {
		t.Fatal(err)
	}
	refCosts := priceGrid(t, ref)

	dir := t.TempDir()
	sc, err := solvecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)

	// Cold: empty directory, live solves, entries written behind us.
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	sameLevels(t, "cold levels", cold.Levels(), ref.Levels())
	sameCosts(t, "cold", priceGrid(t, cold), refCosts)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 { // levels + memo
		t.Fatalf("cold run left %d cache files, want >= 2", len(ents))
	}

	// Warm: a fresh scheme starts with the memo preloaded and re-pricing
	// the same grid never misses.
	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoSize() == 0 {
		t.Fatal("warm scheme has an empty memo before any pricing")
	}
	sameLevels(t, "warm levels", warm.Levels(), ref.Levels())
	var warmCosts []LineCost
	delta := obs.Capture(func() { warmCosts = priceGrid(t, warm) })
	sameCosts(t, "warm", warmCosts, refCosts)
	if misses := delta.Counters["core.memo.misses"]; misses != 0 {
		t.Errorf("warm pricing missed the memo %d times, want 0", misses)
	}
	if hits := delta.Counters["core.memo.hits"]; hits == 0 {
		t.Error("warm pricing recorded no memo hits")
	}

	// Corrupt every cache file: schemes must silently fall back to live
	// solves and still produce the reference bits.
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	burnt, err := NewScheme("burnt", opt)
	if err != nil {
		t.Fatal(err)
	}
	if burnt.MemoSize() != 0 {
		t.Error("corrupt memo file still preloaded entries")
	}
	sameLevels(t, "corrupt levels", burnt.Levels(), ref.Levels())
	sameCosts(t, "corrupt", priceGrid(t, burnt), refCosts)
}

// TestSchemeCacheEscalation: escalated retry entries persist too.
func TestSchemeCacheEscalation(t *testing.T) {
	opt := persistOptions()
	SetSolveCache(nil)
	ref, err := NewScheme("ref", opt)
	if err != nil {
		t.Fatal(err)
	}
	var lw write.LineWrite
	lw.Arrays[0] = write.ArrayWrite{Reset: 0x80}
	want, err := ref.CostWriteRetry(ref.Array().Config().Size-1, 0, lw, 2)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := solvecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.CostWriteRetry(cold.Array().Config().Size-1, 0, lw, 2); err != nil {
		t.Fatal(err)
	}
	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.CostWriteRetry(warm.Array().Config().Size-1, 0, lw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("escalated cost from warm cache differs:\n got  %+v\n want %+v", got, want)
	}
}

// TestMemoFlushCoalesced: a cold scheme rewrites its memo dump only each
// time the table has grown by 1/memoFlushDiv, the remainder waits in the
// pending set until FlushSolveCache (or a simulation's FlushMemo)
// persists it, and a scheme built afterwards loads the complete table
// and prices without a miss.
func TestMemoFlushCoalesced(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	sc, err := solvecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)
	opt := persistOptions()
	opt.ExactMasks = true // every distinct mask is its own entry: a bigger memo
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Capture(func() { priceGrid(t, cold) })
	n := cold.MemoSize()
	wantFlushes, last := 0, 0
	for k := 1; k <= n; k++ {
		if k-last >= max(1, last/memoFlushDiv) {
			wantFlushes++
			last = k
		}
	}
	if got := delta.Counters["solvecache.writes"]; got != uint64(wantFlushes) {
		t.Errorf("cold pricing of %d entries wrote the memo %d times, want %d", n, got, wantFlushes)
	}
	if wantFlushes >= n {
		t.Fatalf("grid too small to show coalescing: %d entries, %d flushes", n, wantFlushes)
	}
	if last == n {
		t.Fatalf("grid ends on a flush point (%d entries); nothing left pending", n)
	}

	delta = obs.Capture(FlushSolveCache)
	if got := delta.Counters["solvecache.writes"]; got != 1 {
		t.Errorf("FlushSolveCache wrote %d times, want 1 (the pending tail)", got)
	}
	delta = obs.Capture(func() { FlushSolveCache(); cold.FlushMemo() })
	if got := delta.Counters["solvecache.writes"]; got != 0 {
		t.Errorf("flushing a persisted memo wrote %d times, want 0", got)
	}

	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.MemoSize(); got != n {
		t.Fatalf("warm scheme loaded %d entries, want %d", got, n)
	}
	delta = obs.Capture(func() { priceGrid(t, warm); warm.FlushMemo() })
	if got := delta.Counters["core.memo.misses"]; got != 0 {
		t.Errorf("warm pricing missed the memo %d times, want 0", got)
	}
	if got := delta.Counters["solvecache.writes"]; got != 0 {
		t.Errorf("warm pricing wrote the cache %d times, want 0", got)
	}
}

// TestMemoFlushConcurrent prices a cold grid from several goroutines at
// once, racing new entries against threshold flushes and explicit
// FlushMemo/FlushSolveCache calls; once they finish, one more flush must
// leave the complete table on disk and nothing pending.
func TestMemoFlushConcurrent(t *testing.T) {
	sc, err := solvecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetSolveCache(sc)
	defer SetSolveCache(nil)
	opt := persistOptions()
	opt.ExactMasks = true
	cold, err := NewScheme("cold", opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for mask := 1; mask < 256; mask += 1 + g {
				var lw write.LineWrite
				lw.Arrays[0] = write.ArrayWrite{Reset: uint8(mask)}
				if _, err := cold.CostWrite(cold.Array().Config().Size-1-g, 0, lw); err != nil {
					t.Error(err)
					return
				}
				if mask%17 == 0 {
					cold.FlushMemo()
				}
				if mask%29 == 0 {
					FlushSolveCache()
				}
			}
		}(g)
	}
	wg.Wait()
	FlushSolveCache()
	pendingMu.Lock()
	_, pending := pendingMemo[cold]
	pendingMu.Unlock()
	if pending {
		t.Error("scheme still pending after FlushSolveCache")
	}
	warm, err := NewScheme("warm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.MemoSize(), cold.MemoSize(); got != want {
		t.Errorf("warm scheme loaded %d entries, cold memo holds %d", got, want)
	}
}
