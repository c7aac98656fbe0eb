package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/memsys"
	"reramsim/internal/solvecache"
)

// Access budgets per core.
const (
	coldAccesses   = 1200
	longAccesses   = 20000
	servedAccesses = 1200
)

// setupRepeats is how many times a workload whose set-up happens once
// per run sets up anyway, so setup_s is a median.
const setupRepeats = 3

// gridRound is one timed grid through a jobs.Engine.
type gridRound struct {
	wall     time.Duration            // the round, Engine.Run call to report
	busy     map[string]time.Duration // Suite.RunCell time per cell
	done     map[string]time.Duration // per cell, Engine.Run call to RunCell return
	results  map[string]*memsys.Result
	failed   int // quarantined cells
	accesses uint64
}

// busyTime is the summed RunCell time of the round.
func (g *gridRound) busyTime() time.Duration {
	var t time.Duration
	for _, d := range g.busy {
		t += d
	}
	return t
}

// runGrid runs pairs on suite through eng, timing each cell's
// Suite.RunCell — the same cells Suite.RunGrid builds, wrapped.
func runGrid(suite *experiments.Suite, eng *jobs.Engine, pairs []experiments.SimPair) (*gridRound, error) {
	g := &gridRound{busy: make(map[string]time.Duration, len(pairs)), done: make(map[string]time.Duration, len(pairs))}
	var mu sync.Mutex
	var t0 time.Time
	cells := make([]jobs.Cell, len(pairs))
	for i, p := range pairs {
		key := p.Scheme + "/" + p.Workload
		cells[i] = jobs.Cell{Key: key, Run: func(ctx context.Context) ([]byte, error) {
			c0 := time.Now()
			b, err := suite.RunCell(ctx, key)
			c1 := time.Now()
			mu.Lock()
			g.busy[key] = c1.Sub(c0)
			g.done[key] = c1.Sub(t0)
			mu.Unlock()
			return b, err
		}}
	}
	t0 = time.Now()
	rep, err := eng.Run(context.Background(), cells)
	g.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	g.failed = len(rep.Quarantined)
	for _, q := range rep.Quarantined {
		fmt.Fprintf(os.Stderr, "perfbench: quarantined %s (%s): %v\n", q.Key, q.Reason, q.Err)
	}
	if g.results, err = decodeCells(rep.Done); err != nil {
		return nil, err
	}
	for _, r := range g.results {
		g.accesses += r.Reads + r.Writes
	}
	return g, nil
}

// record adds the round's end-to-end samples, then gates and counts it.
func (g *gridRound) record(rec *recorder, want map[string]cellRef, tol float64) error {
	rec.sample("sim_accesses_per_s", "accesses/s", float64(g.accesses)/g.wall.Seconds())
	rec.sample("sweep_s", "s", g.wall.Seconds())
	for _, d := range g.done {
		rec.sample("result_ms", "ms", ms(d))
	}
	return g.gate(rec, want, tol)
}

// gate counts the round's cells against the run and checks its results.
func (g *gridRound) gate(rec *recorder, want map[string]cellRef, tol float64) error {
	rec.mu.Lock()
	rec.rounds++
	rec.attempted += len(g.busy) + g.failed
	rec.failed += g.failed
	rec.mu.Unlock()
	if err := checkGrid(g.results, want, gridWorkloads, tol); err != nil {
		return fmt.Errorf("%w: %v", errIncorrect, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// newSuite builds a calibrated suite simulating accesses per core at
// the run's simulation seed.
func newSuite(cfg *runConfig, accesses int) (*experiments.Suite, error) {
	s, err := experiments.NewSuite(accesses)
	if err != nil {
		return nil, err
	}
	s.MemCfg.Seed = simSeed(cfg.seed)
	return s, nil
}

// scratchDir returns a fresh directory under the run's workdir.
func scratchDir(cfg *runConfig, kind string) (string, error) {
	return os.MkdirTemp(cfg.workdir, kind+"-")
}

// coldRound sets up and runs one cold-sweep round: a fresh suite and a
// journaled engine (set-up), then the grid.
func coldRound(cfg *runConfig) (g *gridRound, setup time.Duration, err error) {
	dir, err := scratchDir(cfg, "journal")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	suite, err := newSuite(cfg, coldAccesses)
	if err != nil {
		return nil, 0, err
	}
	pairs := gridPairs()
	digest, err := suite.GridDigest(pairs)
	if err != nil {
		return nil, 0, err
	}
	eng, err := jobs.Open(jobs.Options{Dir: filepath.Join(dir, "ck"), Digest: digest})
	if err != nil {
		return nil, 0, err
	}
	setup = time.Since(t0)
	g, err = runGrid(suite, eng, pairs)
	return g, setup, err
}

func runColdSweep(cfg *runConfig, rec *recorder) error {
	want, err := cfg.ref.Cold.cells(simSeed(cfg.seed))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(cfg.seconds)
	for rec.rounds == 0 || time.Now().Before(deadline) {
		g, setup, err := coldRound(cfg)
		if err != nil {
			return err
		}
		rec.sample("setup_s", "s", setup.Seconds())
		rec.sample("heap_peak_mb", "MB", cfg.heap.take())
		if err := g.record(rec, want, cfg.ref.IPCRelTol); err != nil {
			return err
		}
	}
	return nil
}

// warmCache fills a fresh solve cache with one 1200-access pass of the
// grid — the long-sim set-up — and returns it installed process-wide.
func warmCache(cfg *runConfig) (dir string, setup time.Duration, err error) {
	dir, err = scratchDir(cfg, "solvecache")
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cache, err := solvecache.Open(dir)
	if err != nil {
		return dir, 0, err
	}
	core.SetSolveCache(cache)
	suite, err := newSuite(cfg, coldAccesses)
	if err != nil {
		return dir, 0, err
	}
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		return dir, 0, err
	}
	g, err := runGrid(suite, eng, gridPairs())
	if err != nil {
		return dir, 0, err
	}
	setup = time.Since(t0)
	want, err := cfg.ref.Cold.cells(simSeed(cfg.seed))
	if err != nil {
		return dir, 0, err
	}
	if g.failed > 0 {
		return dir, 0, fmt.Errorf("%w: %d cell(s) quarantined while warming the solve cache", errIncorrect, g.failed)
	}
	if err := checkGrid(g.results, want, gridWorkloads, cfg.ref.IPCRelTol); err != nil {
		return dir, 0, fmt.Errorf("%w: warming pass: %v", errIncorrect, err)
	}
	return dir, setup, nil
}

// setupLongSim warms setupRepeats fresh solve caches, recording each
// as a setup_s sample, and leaves the last one installed. The caller
// uninstalls it with core.SetSolveCache(nil) and removes its directory.
func setupLongSim(cfg *runConfig, rec *recorder) (dir string, err error) {
	for i := 0; i < setupRepeats; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var setup time.Duration
		if dir, setup, err = warmCache(cfg); err != nil {
			return dir, err
		}
		rec.sample("setup_s", "s", setup.Seconds())
	}
	return dir, nil
}

// longRound runs the grid at 20000 accesses on a fresh suite whose
// schemes load from the installed solve cache; the suite's calibration
// is part of the round, as it is of a repeat CLI sweep.
func longRound(cfg *runConfig) (*gridRound, error) {
	t0 := time.Now()
	suite, err := newSuite(cfg, longAccesses)
	if err != nil {
		return nil, err
	}
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		return nil, err
	}
	g, err := runGrid(suite, eng, gridPairs())
	if err != nil {
		return nil, err
	}
	g.wall = time.Since(t0)
	return g, nil
}

func runLongSim(cfg *runConfig, rec *recorder) error {
	defer core.SetSolveCache(nil)
	dir, err := setupLongSim(cfg, rec)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return err
	}
	want, err := cfg.ref.Long.cells(simSeed(cfg.seed))
	if err != nil {
		return err
	}
	cfg.heap.take() // the warming passes are set-up
	deadline := time.Now().Add(cfg.seconds)
	for rec.rounds == 0 || time.Now().Before(deadline) {
		g, err := longRound(cfg)
		if err != nil {
			return err
		}
		rec.sample("heap_peak_mb", "MB", cfg.heap.take())
		if err := g.record(rec, want, cfg.ref.IPCRelTol); err != nil {
			return err
		}
	}
	return nil
}

// gridStats derives the jobs and experiments layer figures of a round:
// the engine's per-cell overhead (worker capacity the cells did not
// use, per cell) and the parallel efficiency.
func gridStats(g *gridRound) (overheadMsPerCell, parallelEff float64) {
	p := runtime.GOMAXPROCS(0)
	if n := len(g.busy); n < p {
		p = n
	}
	capacity := g.wall * time.Duration(p)
	busy := g.busyTime()
	overheadMsPerCell = ms(capacity-busy) / float64(len(g.busy))
	parallelEff = busy.Seconds() / (g.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return overheadMsPerCell, parallelEff
}
