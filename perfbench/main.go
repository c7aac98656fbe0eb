// Command perfbench is the reramsim benchmark: it builds the simulator's
// own packages into one process, drives a workload for a fixed time and
// reports end-to-end metrics (-trace 0) or per-layer metrics (-trace 1).
// Every run checks the program's results against reference.json and
// exits non-zero when they are wrong.
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 35 --trace 0
//
// The workload seed picks the trace: simulation seed 1 + (seed mod 8),
// the seeds reference.json covers, for the sweeps; for served it lays
// out the request schedule (the daemon keeps reramd's default seed).
//
// Workloads (each at GOMAXPROCS = the CPU count, in one process):
//
//   - cold-sweep: a cold Base,Hard+Sys,UDRVR+PR x ast_m,mcf_m,mil_m,zeu_m
//     grid at 1200 accesses per core through a jobs.Engine with an
//     on-disk journal, as `reramsim -checkpoint-dir` runs it. Each round
//     builds a fresh experiments.Suite; its calibration is set-up.
//   - long-sim: the same grid at 20000 accesses with a solve cache that
//     set-up warms with one 1200-access pass, as a repeat
//     `reramsim -solve-cache DIR` sweep runs it.
//   - served: an in-process serve.Server wired as cmd/reramd wires it,
//     answering a seeded open-loop stream of /v1/solve requests (mostly
//     primed keys, a few never-seen ones) from four clients, with a
//     /metrics scrape every second.
//
// End-to-end metrics, reported by every workload:
//
//   - setup_s: median time of the work before a timed round (cold-sweep:
//     suite calibration and journal open, per round; long-sim: warming
//     a fresh solve cache; served: daemon start and priming), set up at
//     least three times per run;
//   - sim_accesses_per_s: simulated reads and writes delivered per host
//     second (per grid round; served: by all 200 replies over the
//     traffic window);
//   - result_p50_ms, result_tail_ms: latency of one result. On the
//     sweeps a result is a grid cell, timed from the start of the grid to
//     its Suite.RunCell returning (a cell's wait behind the grid counts,
//     as it does for someone watching the sweep); on served it is a
//     /v1/solve reply, timed from its due time. The tail percentile is
//     fixed per workload so at least ten samples lie beyond it: p90 on
//     cold-sweep and served (where it is a cache-hit tail; cold-request
//     latency is in the traced run), p80 on long-sim;
//   - ok_ratio: results that passed, over results attempted (quarantined
//     cells, non-200 replies and transport errors count against it);
//   - heap_peak_mb: the highest heap in use (live and not yet swept
//     objects), sampled every 5 ms; the median of its peak per grid
//     round (served: per second of traffic).
//
// The last line of standard output is the result object; the line
// before it is a self-describing document (machine, settings, and every
// metric's median, quartiles and sample count).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/experiments"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	ref      *reference
	heap     *heapSampler
}

// workloadSpec describes one workload.
type workloadSpec struct {
	run      func(*runConfig, *recorder) error
	trace    func(*runConfig, *recorder) error
	tailPct  float64 // percentile of result_tail_ms
	accesses int
}

var workloads = map[string]workloadSpec{
	"cold-sweep": {run: runColdSweep, trace: traceColdSweep, tailPct: 90, accesses: coldAccesses},
	"long-sim":   {run: runLongSim, trace: traceLongSim, tailPct: 80, accesses: longAccesses},
	"served":     {run: runServed, trace: traceServed, tailPct: 90, accesses: servedAccesses},
}

// e2eMetrics lists the end-to-end metrics every untraced run reports.
var e2eMetrics = []string{"setup_s", "sim_accesses_per_s", "result_p50_ms", "result_tail_ms", "ok_ratio", "heap_peak_mb"}

// The grid both sweep workloads run.
var (
	gridSchemes   = []string{"Base", "Hard+Sys", "UDRVR+PR"}
	gridWorkloads = []string{"ast_m", "mcf_m", "mil_m", "zeu_m"}
)

func gridPairs() []experiments.SimPair {
	var pairs []experiments.SimPair
	for _, s := range gridSchemes {
		for _, w := range gridWorkloads {
			pairs = append(pairs, experiments.SimPair{Scheme: s, Workload: w})
		}
	}
	return pairs
}

// errIncorrect marks a failed correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: cold-sweep, long-sim or served")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 35, "seconds to measure")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch directory for journals and solve caches")
		commit   = flag.String("commit", "unknown", "commit being measured, recorded in the result")
		writeRef = flag.String("write-reference", "", "record reference results to this file and exit")
	)
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := &runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir, ref: ref,
	}
	rec := newRecorder()
	cfg.heap = startHeapSampler()
	if cfg.trace {
		err = spec.trace(cfg, rec)
	} else {
		err = spec.run(cfg, rec)
	}
	cfg.heap.stop()
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !cfg.trace {
		rec.tail("result_tail_ms", "result_ms", spec.tailPct)
		rec.rename("result_ms", "result_p50_ms")
	}
	correct := err == nil
	if !correct {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	attempted, failed := rec.attempted, rec.failed
	if attempted < 1 {
		attempted = 1
	}
	if !cfg.trace {
		rec.sample("ok_ratio", "ratio", float64(attempted-failed)/float64(attempted))
	}
	if err := emit(os.Stdout, cfg, *commit, spec, rec, correct, attempted, failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 3
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// recorder collects a run's samples per metric.
type recorder struct {
	mu        sync.Mutex
	units     map[string]string
	samples   map[string][]float64
	fixed     map[string]summary // summaries computed elsewhere (tails)
	notes     []string
	rounds    int
	attempted int
	failed    int
}

func newRecorder() *recorder {
	return &recorder{units: map[string]string{}, samples: map[string][]float64{}, fixed: map[string]summary{}}
}

func (r *recorder) sample(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units[name] = unit
	r.samples[name] = append(r.samples[name], v)
}

// tail adds name as the p-th percentile of the samples of from, noting
// when the tail rule does not hold.
func (r *recorder) tail(name, from string, p float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := tailSummary(r.units[from], r.samples[from], p)
	if !ok {
		r.notes = append(r.notes, fmt.Sprintf("%s: only %d of %d samples lie beyond p%g (want >= %d; p%g is supported)",
			name, s.Beyond, s.N, p, minBeyond, highestSupported(s.N)))
	}
	r.fixed[name] = s
}

// rename moves a metric's samples to a new name.
func (r *recorder) rename(from, to string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units[to], r.samples[to] = r.units[from], r.samples[from]
	delete(r.units, from)
	delete(r.samples, from)
}

func (r *recorder) summaries() map[string]summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]summary, len(r.samples)+len(r.fixed))
	for name, xs := range r.samples {
		out[name] = summarize(r.units[name], xs)
	}
	for name, s := range r.fixed {
		out[name] = s
	}
	return out
}

// metricValue is one entry of the result object's metrics.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the self-describing document, then the result object as
// the last line.
func emit(out io.Writer, cfg *runConfig, commit string, spec workloadSpec, rec *recorder, correct bool, attempted, failed int) error {
	sums := rec.summaries()
	mode, names := "end_to_end", e2eMetrics
	if cfg.trace {
		mode, names = "per_layer", layerMetrics
	}
	vals := make(map[string]metricValue, len(names))
	for _, name := range names {
		s, ok := sums[name]
		if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			if !correct {
				continue // the run stopped at the failed gate
			}
			return fmt.Errorf("metric %s was not measured", name)
		}
		vals[name] = metricValue{Value: s.Median, Unit: s.Unit}
	}
	doc := map[string]any{
		"benchmark": "reramsim-perfbench",
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"simSeed":   simSeed(cfg.seed),
		"seconds":   cfg.seconds.Seconds(),
		"mode":      mode,
		"rounds":    rec.rounds,
		"accesses":  spec.accesses,
		"env":       describeEnv(commit),
		"metrics":   sums,
		"notes":     rec.notes,
		"correct":   correct,
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": vals,
	}); err != nil {
		return err
	}
	return w.Flush()
}

// describeEnv records the machine and toolchain a result was measured on.
func describeEnv(commit string) map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numCPU":     runtime.NumCPU(),
		"cpuModel":   cpuModel(),
		"goVersion":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapSampler tracks the peak heap in use by polling runtime/metrics.
// take reads and restarts the peak, so a workload can record the peak
// of each round and report their median, which a single extreme
// sample over the whole run would not steady.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  atomic.Uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

// read folds the current heap in use into the peak.
func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and restarts it.
func (h *heapSampler) take() float64 {
	h.read()
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}
