package main

import (
	"math"
	"testing"
	"time"

	"reramsim/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the arithmetic the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2, 10, 5}, 1.5, 3, 7.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %g, want NaN", q1)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 50.5, 50}, {90, 90.1, 10}, {99, 99.01, 1}} {
		v, beyond := percentile(xs, c.p)
		if !near(v, c.value) || beyond != c.beyond {
			t.Errorf("p%g = %g (%d beyond), want %g (%d beyond)", c.p, v, beyond, c.value, c.beyond)
		}
	}
}

// TestTailRule checks the "at least ten samples beyond" rule that
// decides which percentile a sample count can support.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{1060, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 80}, {50, 80}, {20, 50}, {19, 0}} {
		if got := highestSupported(c.n); got != c.p {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.p)
		}
	}
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	s, ok := tailSummary("ms", ramp(1060), 99)
	if !ok || s.Beyond < minBeyond || s.Percentile != 99 || s.N != 1060 {
		t.Errorf("1060 samples at p99: ok=%v %+v", ok, s)
	}
	if s, ok := tailSummary("ms", ramp(72), 90); ok || s.Beyond >= minBeyond {
		t.Errorf("72 samples cannot support p90: ok=%v %+v", ok, s)
	}
}

func TestRecorderTailAndRename(t *testing.T) {
	rec := newRecorder()
	for i := 0; i < 100; i++ {
		rec.sample("result_ms", "ms", float64(i))
	}
	rec.tail("result_tail_ms", "result_ms", 95)
	rec.rename("result_ms", "result_p50_ms")
	sums := rec.summaries()
	if _, ok := sums["result_ms"]; ok {
		t.Error("renamed metric still present")
	}
	if s := sums["result_p50_ms"]; !near(s.Median, 49.5) || s.N != 100 || s.Unit != "ms" {
		t.Errorf("result_p50_ms = %+v", s)
	}
	if len(rec.notes) != 1 {
		t.Errorf("p95 of 100 samples leaves 5 beyond; want one note, got %q", rec.notes)
	}
}

func TestUnionAndConcurrency(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}}
	if got := union(ivs); got != 25 {
		t.Errorf("union = %d, want 25", got)
	}
	if got := concurrency(ivs); !near(got, 30.0/25) {
		t.Errorf("concurrency = %g, want 1.2", got)
	}
	if got := concurrency(nil); got != 0 {
		t.Errorf("concurrency(nil) = %g", got)
	}
}

// TestAnalyzeSpans checks self time: a parent loses the time its
// children cover once, however they overlap.
func TestAnalyzeSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.Span{
		{ID: 1, Name: "cell:Base/mcf_m", Start: 0, Dur: 100 * ms},
		{ID: 2, ParentID: 1, Name: "memsys.sim:Base/mcf_m", Start: 10 * ms, Dur: 80 * ms},
		{ID: 3, ParentID: 2, Name: "core.solve_op", Start: 20 * ms, Dur: 30 * ms},
		{ID: 4, ParentID: 3, Name: "xpoint.solve", Start: 25 * ms, Dur: 20 * ms},
		{ID: 5, ParentID: 2, Name: "core.solve_op", Start: 40 * ms, Dur: 30 * ms}, // overlaps span 3
		{ID: 6, Name: "core.calibrate:Base", Start: 0, Dur: 5 * ms},
		{ID: 7, ParentID: 6, Name: "xpoint.solveBatch", Start: 1 * ms, Dur: 2 * ms},
	}
	st := analyzeSpans(spans)
	want := map[string]time.Duration{
		"cell:Base/mcf_m": 20 * ms, // unclassified spans keep their name
		"memsys.sim":      30 * ms, // 80 - union(20..70)
		"core.solve_op":   40 * ms, // (30-20) + 30
		"xpoint.solve":    22 * ms, // both solve span names fold together
		"core.calibrate":  3 * ms,
	}
	for class, d := range want {
		if st.self[class] != d {
			t.Errorf("self[%s] = %v, want %v", class, st.self[class], d)
		}
	}
	if st.total["core.calibrate"] != 5*ms || st.total["core.solve_op"] != 60*ms {
		t.Errorf("total calibrate %v, solve_op %v", st.total["core.calibrate"], st.total["core.solve_op"])
	}
}
