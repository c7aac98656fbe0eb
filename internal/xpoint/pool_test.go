package xpoint

import (
	"math"
	"sync"
	"testing"
)

// poolConfigs covers the solver variants whose ladders the context pool
// reconfigures differently (ground layout, driver taps, oracle taps).
func poolConfigs() map[string]Config {
	base := DefaultConfig()
	dsgb := base
	dsgb.DSGB = true
	both := dsgb
	both.DSWD = true
	ora := base
	ora.OracleWL = 64
	ora.OracleBL = 128
	return map[string]Config{"base": base, "dsgb": dsgb, "dsgb+dswd": both, "oracle": ora}
}

func poolOps(cfg Config) []ResetOp {
	v := cfg.Params.Vrst
	return []ResetOp{
		{Row: cfg.Size - 1, Cols: []int{cfg.Size - 1}, Volts: []float64{v}},
		{Row: cfg.Size / 3, Cols: []int{10, 200, 400, 505}, Volts: []float64{v, v + 0.3, v + 0.6, 3.94}},
		{Row: 0, Cols: []int{0}, Volts: []float64{v + 0.66}},
		{Row: cfg.Size - 1, Cols: []int{63, 191, 319, 447}, Volts: []float64{v, v, v, v}},
	}
}

func sameResult(t *testing.T, label string, got, want *ResetResult) {
	t.Helper()
	if len(got.Veff) != len(want.Veff) || len(got.Icell) != len(want.Icell) {
		t.Fatalf("%s: result shape %d/%d, want %d/%d", label, len(got.Veff), len(got.Icell), len(want.Veff), len(want.Icell))
	}
	for i := range want.Veff {
		if math.Float64bits(got.Veff[i]) != math.Float64bits(want.Veff[i]) {
			t.Errorf("%s: Veff[%d] = %.17g, want %.17g", label, i, got.Veff[i], want.Veff[i])
		}
		if math.Float64bits(got.Icell[i]) != math.Float64bits(want.Icell[i]) {
			t.Errorf("%s: Icell[%d] = %.17g, want %.17g", label, i, got.Icell[i], want.Icell[i])
		}
	}
	if math.Float64bits(got.Itotal) != math.Float64bits(want.Itotal) {
		t.Errorf("%s: Itotal = %.17g, want %.17g", label, got.Itotal, want.Itotal)
	}
	if math.Float64bits(got.Latency) != math.Float64bits(want.Latency) {
		t.Errorf("%s: Latency = %.17g, want %.17g", label, got.Latency, want.Latency)
	}
	if got.Failed != want.Failed {
		t.Errorf("%s: Failed = %v, want %v", label, got.Failed, want.Failed)
	}
}

// TestPooledSolveDeterminism: solving on a warm Array (pooled, previously
// used ladders) must be bit-identical to solving on a fresh Array, in any
// op order, and SimulateResetInto must match SimulateReset exactly while
// reusing the caller's result slices.
func TestPooledSolveDeterminism(t *testing.T) {
	for name, cfg := range poolConfigs() {
		t.Run(name, func(t *testing.T) {
			ops := poolOps(cfg)

			// References: each op on its own pristine Array.
			want := make([]*ResetResult, len(ops))
			for i, op := range ops {
				res, err := MustNew(cfg).SimulateReset(op)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}

			// One shared Array, ops interleaved repeatedly: warm pooled
			// contexts must not leak any state between solves.
			arr := MustNew(cfg)
			var into ResetResult
			for round := 0; round < 3; round++ {
				for i, op := range ops {
					res, err := arr.SimulateReset(op)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name+" warm", res, want[i])

					if err := arr.SimulateResetInto(op, &into); err != nil {
						t.Fatal(err)
					}
					sameResult(t, name+" into", &into, want[i])
				}
				// Reverse order: different pool checkout pattern.
				for i := len(ops) - 1; i >= 0; i-- {
					if err := arr.SimulateResetInto(ops[i], &into); err != nil {
						t.Fatal(err)
					}
					sameResult(t, name+" reverse", &into, want[i])
				}
			}
		})
	}
}

// TestSimulateResetIntoValidates: the Into entry point rejects bad ops
// like SimulateReset does, leaving the result untouched.
func TestSimulateResetIntoValidates(t *testing.T) {
	arr := MustNew(DefaultConfig())
	var res ResetResult
	if err := arr.SimulateResetInto(ResetOp{Row: -1, Cols: []int{0}, Volts: []float64{3}}, &res); err == nil {
		t.Error("negative row accepted")
	}
	if err := arr.SimulateResetInto(ResetOp{Row: 0, Cols: []int{5, 2}, Volts: []float64{3, 3}}, &res); err == nil {
		t.Error("descending columns accepted")
	}
}

// TestResetOpHammer interleaves 1-bit and 4-bit ops on one Array from
// many goroutines (run under -race in CI): every solve must return the
// same bits as the quiescent reference, proving pooled contexts are
// fully isolated.
func TestResetOpHammer(t *testing.T) {
	cfg := DefaultConfig()
	arr := MustNew(cfg)
	v := cfg.Params.Vrst
	op1 := ResetOp{Row: cfg.Size - 1, Cols: []int{cfg.Size - 1}, Volts: []float64{v}}
	op4 := ResetOp{Row: cfg.Size / 2, Cols: []int{127, 255, 383, 511}, Volts: []float64{v, v + 0.2, v + 0.4, v + 0.6}}

	want1, err := arr.SimulateReset(op1)
	if err != nil {
		t.Fatal(err)
	}
	want4, err := arr.SimulateReset(op4)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res ResetResult
			for i := 0; i < iters; i++ {
				op, want := op1, want1
				if (w+i)%2 == 0 {
					op, want = op4, want4
				}
				if err := arr.SimulateResetInto(op, &res); err != nil {
					errs <- err
					return
				}
				for j := range want.Veff {
					if math.Float64bits(res.Veff[j]) != math.Float64bits(want.Veff[j]) {
						t.Errorf("worker %d iter %d: Veff[%d] = %.17g, want %.17g", w, i, j, res.Veff[j], want.Veff[j])
						return
					}
				}
				if math.Float64bits(res.Itotal) != math.Float64bits(want.Itotal) {
					t.Errorf("worker %d iter %d: Itotal mismatch", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOracleScratchIsolation: the oracle decomposition shares one scratch
// sub-op; results written into a caller result must not alias it.
func TestOracleScratchIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OracleWL = 64
	arr := MustNew(cfg)
	v := cfg.Params.Vrst
	op := ResetOp{Row: 100, Cols: []int{50, 150, 250}, Volts: []float64{v, v + 0.1, v + 0.2}}
	a, err := arr.SimulateReset(op)
	if err != nil {
		t.Fatal(err)
	}
	b, err := arr.SimulateReset(op)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "oracle repeat", b, a)
	if &a.Veff[0] == &b.Veff[0] {
		t.Error("two SimulateReset results share a backing array")
	}
}

// TestWideSolveDoesNotPinPooledLadders is the regression test for the
// pooled-context retention fix: after an op wider than pooledPieceCap,
// the pool must hand out a fresh small context, not the max-size one
// (before the fix, one wide op left every pooled context pinning
// Size-scale ladders for the process lifetime).
func TestWideSolveDoesNotPinPooledLadders(t *testing.T) {
	cfg := DefaultConfig()
	arr := MustNew(cfg)
	n := pooledPieceCap + 8
	op := ResetOp{Row: 5, Cols: make([]int, n), Volts: make([]float64, n)}
	for i := 0; i < n; i++ {
		op.Cols[i] = i * (cfg.Size / n)
		op.Volts[i] = cfg.Params.Vrst
	}
	var res ResetResult
	if err := arr.SimulateResetInto(op, &res); err != nil {
		t.Fatal(err)
	}
	c := arr.getCtx(1)
	if len(c.bl) > pooledPieceCap {
		t.Fatalf("pool returned a %d-piece context after a wide solve; oversized contexts must be discarded", len(c.bl))
	}
	arr.putCtx(c)

	// Small ops must still pool: the steady state stays allocation-free
	// after the large→small transition.
	small := oneBit(cfg.Size-1, cfg.Size-1, cfg.Params.Vrst)
	if err := arr.SimulateResetInto(small, &res); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := arr.SimulateResetInto(small, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state small solve allocates %.1f/op after wide workload", allocs)
	}
}

// TestPutCtxDiscardsOversized pins the putCtx size-class bound directly.
func TestPutCtxDiscardsOversized(t *testing.T) {
	arr := MustNew(smallConfig())
	big := &solveCtx{}
	big.grow(arr, pooledPieceCap+1)
	arr.putCtx(big)
	if got := arr.getCtx(1); got == big {
		t.Error("context above pooledPieceCap returned to the pool")
	}
	ok := &solveCtx{}
	ok.grow(arr, pooledPieceCap)
	arr.putCtx(ok) // at the bound: must remain poolable
}
