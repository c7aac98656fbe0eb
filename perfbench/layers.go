package main

import (
	"os"
	"sort"
	"strings"
	"time"

	"reramsim/internal/core"
	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
	"reramsim/internal/obs"
	"reramsim/internal/solvecache"
	"reramsim/internal/trace"
	"reramsim/internal/write"
	"reramsim/internal/xpoint"
)

// The traced run (-trace 1). It reports the same per-layer metrics on
// every workload, from three sources:
//
//   - the workload itself: rounds alternate between no span sink and an
//     in-memory span sink (obs.MemorySpanSink) — timings and layer self
//     times come from the span rounds, the tracing overhead is traced ÷
//     untraced wall time — plus, for the sweeps, one round with the obs
//     registry on for counts (the registry serializes simulations
//     through obs.Capture, so it never runs in a timed round; the served
//     daemon has it on throughout, as reramd does);
//   - direct calls into single layers on fixed inputs (xpoint.solve_us,
//     core.costwrite_ns, trace.next_ns) and a solve-cache warm-and-load
//     pass (solvecache.*);
//   - for a layer the workload does not drive, a short pass of the
//     workload that does: a served session on the sweeps (serve.*,
//     telemetry.*, bench.gen_late_ms) and a cold grid round on served
//     (jobs.overhead_ms_per_cell).
//
// Not measurable from outside the program: time a cold solve waits for
// the obs.Capture lock (serve.backend_concurrency shows its effect, not
// the wait itself), journal fsync time inside the engine (it is folded
// into jobs.overhead_ms_per_cell), and per-op solver sweeps and node
// updates (no counter exposes them).

// layerMetrics lists the per-layer metrics every traced run reports.
var layerMetrics = []string{
	"xpoint.solves", "xpoint.solve_us", "xpoint.solve_self_s",
	"core.calibrate_s", "core.cold_solves", "core.solve_op_share", "core.memo_hit_ratio", "core.costwrite_ns",
	"memsys.sim_self_s", "memsys.ns_per_access", "memsys.reads", "memsys.writes", "memsys.write_bursts",
	"trace.next_ns",
	"solvecache.scheme_load_ms", "solvecache.warm_writes",
	"jobs.overhead_ms_per_cell",
	"experiments.parallel_eff",
	"serve.hit_overhead_us", "serve.backend_cold_ms", "serve.backend_concurrency", "serve.shed",
	"serve.hit_p50_ms", "serve.hit_p99_ms", "serve.cold_p50_ms", "serve.cold_p80_ms",
	"telemetry.scrape_ms",
	"bench.gen_late_ms", "bench.trace_overhead", "bench.solve_share",
}

// probeWindow is the traffic window of the served pass the sweep
// workloads run for the serve layer.
const probeWindow = 4 * time.Second

// ownShare is the part of a traced run's seconds spent on the
// workload's own passes; the counting round and the probes take the
// rest, so a traced run lasts about as long as an untraced one.
func ownShare(cfg *runConfig) time.Duration { return cfg.seconds * 2 / 3 }

// interval is a closed span of wall time in nanoseconds.
type interval struct{ lo, hi int64 }

// union returns the total length covered by ivs.
func union(ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total, end int64
	started := false
	for _, iv := range s {
		switch {
		case !started || iv.lo > end:
			total += iv.hi - iv.lo
			end = iv.hi
			started = true
		case iv.hi > end:
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// concurrency is the mean number of intervals in progress while any is:
// summed length over covered length (0 for none).
func concurrency(ivs []interval) float64 {
	u := union(ivs)
	if u == 0 {
		return 0
	}
	var sum int64
	for _, iv := range ivs {
		sum += iv.hi - iv.lo
	}
	return float64(sum) / float64(u)
}

// spanClass folds span names into the layers they time.
func spanClass(name string) string {
	switch {
	case name == "xpoint.solve" || name == "xpoint.solveBatch":
		return "xpoint.solve"
	case strings.HasPrefix(name, "core.calibrate:"):
		return "core.calibrate"
	case strings.HasPrefix(name, "memsys.sim:"):
		return "memsys.sim"
	}
	return name
}

// spanTimes sums, per layer, the spans' total and self time. A span's
// self time is its duration minus the part of it its child spans cover.
type spanTimes struct {
	total, self map[string]time.Duration
}

func analyzeSpans(spans []obs.Span) spanTimes {
	kids := make(map[uint64][]interval)
	for _, sp := range spans {
		if sp.ParentID != 0 {
			kids[sp.ParentID] = append(kids[sp.ParentID], interval{int64(sp.Start), int64(sp.Start + sp.Dur)})
		}
	}
	st := spanTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	for _, sp := range spans {
		lo, hi := int64(sp.Start), int64(sp.Start+sp.Dur)
		var clipped []interval
		for _, k := range kids[sp.ID] {
			if k.lo < lo {
				k.lo = lo
			}
			if k.hi > hi {
				k.hi = hi
			}
			if k.hi > k.lo {
				clipped = append(clipped, k)
			}
		}
		c := spanClass(sp.Name)
		st.total[c] += sp.Dur
		st.self[c] += sp.Dur - time.Duration(union(clipped))
	}
	return st
}

// recordSpans adds the span-derived layer figures of one traced pass
// that simulated accesses reads+writes and kept the cells busy for busy.
func recordSpans(rec *recorder, st spanTimes, accesses uint64, busy time.Duration) {
	xs, ops, cal := st.self["xpoint.solve"], st.self["core.solve_op"], st.self["core.calibrate"]
	rec.sample("xpoint.solve_self_s", "s", xs.Seconds())
	if busy > 0 {
		rec.sample("core.solve_op_share", "ratio", ops.Seconds()/busy.Seconds())
	}
	rec.sample("core.calibrate_s", "s", st.total["core.calibrate"].Seconds())
	rec.sample("memsys.sim_self_s", "s", st.self["memsys.sim"].Seconds())
	if accesses > 0 {
		rec.sample("memsys.ns_per_access", "ns", float64(st.self["memsys.sim"].Nanoseconds())/float64(accesses))
	}
	if busy > 0 {
		rec.sample("bench.solve_share", "ratio", (xs+ops+cal).Seconds()/busy.Seconds())
	}
}

// recordCounts adds the registry-derived layer counts of delta.
func recordCounts(rec *recorder, delta obs.Snapshot) {
	c := delta.Counters
	rec.sample("xpoint.solves", "count", float64(c["xpoint.reset.solves"]))
	rec.sample("memsys.reads", "count", float64(c["memsys.reads"]))
	rec.sample("memsys.writes", "count", float64(c["memsys.writes"]))
	rec.sample("memsys.write_bursts", "count", float64(c["memsys.write_bursts"]))
	if n := c["core.memo.hits"] + c["core.memo.misses"]; n > 0 {
		rec.sample("core.memo_hit_ratio", "ratio", float64(c["core.memo.hits"])/float64(n))
	}
}

// memoSize sums the memo sizes of the named schemes, building any the
// suite has not built yet.
func memoSize(s *experiments.Suite, schemes []string) (int, error) {
	n := 0
	for _, name := range schemes {
		sc, err := s.Scheme(name)
		if err != nil {
			return 0, err
		}
		n += sc.MemoSize()
	}
	return n, nil
}

// traceSweep is the traced run of a sweep workload: round runs one
// timed round, accesses is its budget, want its reference.
func traceSweep(cfg *runConfig, rec *recorder, round func() (*gridRound, error), accesses int, want map[string]cellRef) error {
	var untraced, traced []float64
	deadline := time.Now().Add(ownShare(cfg))
	for i := 0; len(traced) < 2 || time.Now().Before(deadline); i++ {
		var sink *obs.MemorySpanSink
		if i%2 == 1 {
			sink = &obs.MemorySpanSink{}
			obs.SetSpanSink(sink)
		}
		g, err := round()
		obs.SetSpanSink(nil)
		if err != nil {
			return err
		}
		if err := g.gate(rec, want, cfg.ref.IPCRelTol); err != nil {
			return err
		}
		if sink == nil {
			untraced = append(untraced, g.wall.Seconds())
			ov, eff := gridStats(g)
			rec.sample("jobs.overhead_ms_per_cell", "ms", ov)
			rec.sample("experiments.parallel_eff", "ratio", eff)
			continue
		}
		traced = append(traced, g.wall.Seconds())
		recordSpans(rec, analyzeSpans(sink.Spans()), g.accesses, g.busyTime())
	}
	rec.sample("bench.trace_overhead", "ratio", median(traced)/median(untraced))

	// Counts, from a round of their own with the registry on. Building
	// the schemes first separates memo entries loaded from a solve
	// cache from the cold solves the grid itself performs.
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obs.Default().Snapshot()
	suite, err := newSuite(cfg, accesses)
	if err != nil {
		return err
	}
	loaded, err := memoSize(suite, gridSchemes)
	if err != nil {
		return err
	}
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		return err
	}
	g, err := runGrid(suite, eng, gridPairs())
	if err != nil {
		return err
	}
	recordCounts(rec, obs.Default().Snapshot().Delta(before))
	if err := g.gate(rec, want, cfg.ref.IPCRelTol); err != nil {
		return err
	}
	after, err := memoSize(suite, gridSchemes)
	if err != nil {
		return err
	}
	rec.sample("core.cold_solves", "count", float64(after-loaded))
	obs.SetEnabled(false)

	if err := probeLayers(cfg, rec); err != nil {
		return err
	}
	return probeServe(cfg, rec)
}

func traceColdSweep(cfg *runConfig, rec *recorder) error {
	want, err := cfg.ref.Cold.cells(simSeed(cfg.seed))
	if err != nil {
		return err
	}
	round := func() (*gridRound, error) {
		g, _, err := coldRound(cfg)
		return g, err
	}
	return traceSweep(cfg, rec, round, coldAccesses, want)
}

func traceLongSim(cfg *runConfig, rec *recorder) error {
	defer core.SetSolveCache(nil)
	dir, _, err := warmCache(cfg)
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
	return traceSweep(cfg, rec, func() (*gridRound, error) { return longRound(cfg) }, longAccesses, want)
}

// traceServed runs the schedule twice on fresh daemons, without and
// with a span sink: serve-layer timings come from the untraced session,
// layer self times from the traced one, and the tracing overhead is the
// ratio of their summed backend time.
func traceServed(cfg *runConfig, rec *recorder) error {
	window := ownShare(cfg) / 2
	if window < 2*time.Second {
		window = 2 * time.Second
	}
	sched := buildSchedule(cfg.seed, window)
	var sessions [2]*session
	for i := range sessions {
		d, _, err := startDaemon()
		if err != nil {
			return err
		}
		hotMemo, err := memoSize(d.suite, gridSchemes)
		if err != nil {
			d.close()
			return err
		}
		var sink *obs.MemorySpanSink
		if i == 1 {
			sink = &obs.MemorySpanSink{}
			obs.SetSpanSink(sink)
		}
		before := obs.Default().Snapshot()
		s := drive(d, sched, nil)
		obs.SetSpanSink(nil)
		delta := obs.Default().Snapshot().Delta(before)
		sessions[i] = s
		s.count(rec)
		err = s.gate(cfg.ref)
		if err == nil && sink != nil {
			recordCounts(rec, delta)
			var accesses uint64
			for j := range s.replies {
				if r := &s.replies[j]; r.req.Cold && r.ok() {
					accesses += r.result.Reads + r.result.Writes
				}
			}
			recordSpans(rec, analyzeSpans(sink.Spans()), accesses, s.backendTime())
			var all int
			if all, err = memoSize(d.suite, servedSchemes(sched)); err == nil {
				rec.sample("core.cold_solves", "count", float64(all-hotMemo))
			}
		}
		d.close()
		if err != nil {
			return err
		}
	}
	sessions[0].layerFigures(rec)
	rec.sample("bench.trace_overhead", "ratio", sessions[1].backendTime().Seconds()/sessions[0].backendTime().Seconds())

	obs.SetEnabled(false)
	if err := probeLayers(cfg, rec); err != nil {
		return err
	}
	// The jobs layer, from one cold-sweep round.
	want, err := cfg.ref.Cold.cells(simSeed(cfg.seed))
	if err != nil {
		return err
	}
	g, _, err := coldRound(cfg)
	if err != nil {
		return err
	}
	if err := g.gate(rec, want, cfg.ref.IPCRelTol); err != nil {
		return err
	}
	ov, _ := gridStats(g)
	rec.sample("jobs.overhead_ms_per_cell", "ms", ov)
	return nil
}

// servedSchemes lists every scheme the schedule touches, hot ones first.
func servedSchemes(sched []request) []string {
	names := append([]string(nil), gridSchemes...)
	seen := map[string]bool{}
	for _, s := range names {
		seen[s] = true
	}
	for _, r := range sched {
		if !seen[r.Scheme] {
			seen[r.Scheme] = true
			names = append(names, r.Scheme)
		}
	}
	return names
}

// probeServe measures the serve layer for workloads that do not drive
// it: a probeWindow served session on a fresh daemon.
func probeServe(cfg *runConfig, rec *recorder) error {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	d, _, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.close()
	s := drive(d, buildSchedule(cfg.seed, probeWindow), nil)
	s.count(rec)
	if err := s.gate(cfg.ref); err != nil {
		return err
	}
	// parallel_eff belongs to the sweep itself here.
	probe := newRecorder()
	s.layerFigures(probe)
	for name, xs := range probe.samples {
		if name == "experiments.parallel_eff" {
			continue
		}
		for _, x := range xs {
			rec.sample(name, probe.units[name], x)
		}
	}
	return nil
}

// probeLayers runs the single-layer measurements every traced run
// reports: direct array solves, warm line-write pricing, trace
// generation, and a solve cache warmed then loaded.
func probeLayers(cfg *runConfig, rec *recorder) error {
	suite, err := newSuite(cfg, coldAccesses)
	if err != nil {
		return err
	}
	if err := probeSolve(rec, suite.Cfg); err != nil {
		return err
	}
	if err := probeCostWrite(rec, suite.Cfg, simSeed(cfg.seed)); err != nil {
		return err
	}
	if err := probeTrace(rec, simSeed(cfg.seed)); err != nil {
		return err
	}
	return probeSolveCache(cfg, rec)
}

// probeBudget bounds each timed single-layer loop.
const probeBudget = 400 * time.Millisecond

// probeSolve times Array.SimulateReset on a fixed op set — the
// worst-case 1-bit RESET at the far corner (row and column 511) and a
// 4-bit partition RESET on the far row — and reports the mean of the
// two ops' median times.
func probeSolve(rec *recorder, cfg xpoint.Config) error {
	arr, err := xpoint.New(cfg)
	if err != nil {
		return err
	}
	last, off := cfg.Size-1, cfg.MuxWidth()-1
	v := cfg.Params.Vrst
	pr := xpoint.ResetOp{Row: last}
	for b := cfg.DataWidth - 4; b < cfg.DataWidth; b++ {
		pr.Cols = append(pr.Cols, cfg.ColumnOfBit(b, off))
		pr.Volts = append(pr.Volts, v)
	}
	ops := []xpoint.ResetOp{{Row: last, Cols: []int{last}, Volts: []float64{v}}, pr}
	var total float64
	for _, op := range ops {
		var xs []float64
		deadline := time.Now().Add(probeBudget / 2)
		for len(xs) < 5 || time.Now().Before(deadline) {
			t0 := time.Now()
			if _, err := arr.SimulateReset(op); err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		total += median(xs)
	}
	rec.sample("xpoint.solve_us", "us", total/float64(len(ops)))
	return nil
}

// probeCostWrite prices a fixed stream of mcf_m line writes (trace
// generator, then Flip-N-Write) on a UDRVR+PR scheme whose memo the
// first pass fills, and reports the median warm ns per CostWrite.
func probeCostWrite(rec *recorder, cfg xpoint.Config, seed int64) error {
	sc, err := core.UDRVRPR(cfg)
	if err != nil {
		return err
	}
	b, err := trace.ByName("mcf_m")
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(b, seed)
	if err != nil {
		return err
	}
	type lineWrite struct {
		row, off int
		lw       write.LineWrite
	}
	mux := uint64(cfg.MuxWidth())
	var stream []lineWrite
	for len(stream) < 4096 {
		a := g.Next()
		if a.Kind != trace.Write {
			continue
		}
		lw, _, err := write.FlipNWrite(a.Old[:], a.New[:])
		if err != nil {
			return err
		}
		stream = append(stream, lineWrite{int(a.Line % uint64(cfg.Size)), int(a.Line / uint64(cfg.Size) % mux), lw})
	}
	price := func() error {
		for _, w := range stream {
			if _, err := sc.CostWrite(w.row, w.off, w.lw); err != nil {
				return err
			}
		}
		return nil
	}
	if err := price(); err != nil {
		return err
	}
	var xs []float64
	deadline := time.Now().Add(probeBudget)
	for len(xs) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := price(); err != nil {
			return err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(len(stream)))
	}
	rec.sample("core.costwrite_ns", "ns", median(xs))
	return nil
}

// traceSink keeps probeTrace's generated addresses observable, so the
// compiler cannot drop the calls it times.
var traceSink uint64

// probeTrace times the mcf_m generator's Next in batches.
func probeTrace(rec *recorder, seed int64) error {
	b, err := trace.ByName("mcf_m")
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(b, seed)
	if err != nil {
		return err
	}
	const batch = 10000
	var xs []float64
	deadline := time.Now().Add(probeBudget)
	for len(xs) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			traceSink += g.Next().Line
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/batch)
	}
	rec.sample("trace.next_ns", "ns", median(xs))
	return nil
}

// probeSolveCache warms a fresh solve cache with one 1200-access pass
// of the grid (the long-sim set-up), counting its writes with the
// registry on, then times building each grid scheme from it on fresh
// suites.
func probeSolveCache(cfg *runConfig, rec *recorder) error {
	dir, err := scratchDir(cfg, "probecache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := solvecache.Open(dir)
	if err != nil {
		return err
	}
	core.SetSolveCache(cache)
	defer core.SetSolveCache(nil)
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	obs.SetEnabled(true)
	suite, err := newSuite(cfg, coldAccesses)
	if err != nil {
		return err
	}
	eng, err := jobs.Open(jobs.Options{})
	if err != nil {
		return err
	}
	before := obs.Default().Snapshot()
	if _, err := runGrid(suite, eng, gridPairs()); err != nil {
		return err
	}
	delta := obs.Default().Snapshot().Delta(before)
	rec.sample("solvecache.warm_writes", "count", float64(delta.Counters["solvecache.writes"]))
	obs.SetEnabled(false)

	var xs []float64
	for rep := 0; rep < 3; rep++ {
		s, err := newSuite(cfg, longAccesses)
		if err != nil {
			return err
		}
		for _, name := range gridSchemes {
			t0 := time.Now()
			if _, err := s.Scheme(name); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
	}
	rec.sample("solvecache.scheme_load_ms", "ms", median(xs))
	return nil
}
