package xpoint

import (
	"math"
	"math/rand"
	"testing"

	"reramsim/internal/device"
)

// sweepReference is the straightforward ladder sweep the inlined sweep
// replaced: it prices each load through Tabulated.SecantConductance and
// indexes the ladder's fields directly. It is kept here as the bit-level
// reference for sweep.
func (l *ladder) sweepReference(relax float64) float64 {
	n, gw := l.n, l.gw
	var cprev, dprev float64
	for i := 0; i < n; i++ {
		diag := l.srcG[i]
		rhs := l.srcG[i] * l.srcV[i]
		if dev := l.loads[i]; dev != nil {
			g := dev.SecantConductance(l.v[i] - l.loadU[i])
			diag += g
			rhs += g * l.loadU[i]
		}
		ai, ci := 0.0, 0.0
		if i > 0 {
			ai = -gw
			diag += gw
		}
		if i < n-1 {
			ci = -gw
			diag += gw
		}
		if diag == 0 {
			diag = 1e-30
		}
		m := diag - ai*cprev
		cprev = ci / m
		dprev = (rhs - ai*dprev) / m
		l.cp[i] = cprev
		l.dp[i] = dprev
	}
	res := 0.0
	xnext := 0.0
	for i := n - 1; i >= 0; i-- {
		x := l.dp[i]
		if i < n-1 {
			x -= l.cp[i] * xnext
		}
		xnext = x
		nv := l.v[i] + relax*(x-l.v[i])
		if nv < l.vmin {
			nv = l.vmin
		} else if nv > l.vmax {
			nv = l.vmax
		}
		if dv := math.Abs(nv - l.v[i]); dv > res {
			res = dv
		}
		l.v[i] = nv
	}
	return res
}

// cloneLadder deep-copies l so two sweeps can run side by side.
func cloneLadder(l *ladder) *ladder {
	c := *l
	c.loads = append([]*device.Tabulated(nil), l.loads...)
	c.loadU = append([]float64(nil), l.loadU...)
	c.srcG = append([]float64(nil), l.srcG...)
	c.srcV = append([]float64(nil), l.srcV...)
	c.v = append([]float64(nil), l.v...)
	c.cp = append([]float64(nil), l.cp...)
	c.dp = append([]float64(nil), l.dp...)
	return &c
}

// sweepBranches counts, over one sweep's inputs and outputs, how often
// each branch of the load and clamp logic was taken.
type sweepBranches struct {
	zero, beyond, negative, noLoad, clampLo, clampHi, degenerate int
}

func (b *sweepBranches) before(l *ladder) {
	for i := 0; i < l.n; i++ {
		dev := l.loads[i]
		if dev == nil {
			b.noLoad++
			if l.srcG[i] == 0 && l.n == 1 {
				b.degenerate++ // diag == 0 guard
			}
			continue
		}
		x := l.v[i] - l.loadU[i]
		switch {
		case x == 0:
			b.zero++
		case math.Abs(x) >= dev.VMax:
			b.beyond++
		}
		if x < 0 {
			b.negative++
		}
	}
}

func (b *sweepBranches) after(l *ladder) {
	for _, v := range l.v {
		if v == l.vmin {
			b.clampLo++
		}
		if v == l.vmax {
			b.clampHi++
		}
	}
}

// randomLadder builds a ladder of n nodes whose loads, far potentials,
// source taps, bounds and starting voltages are drawn to reach every
// branch of sweep: nil loads, alternating devices (some with tables
// narrower than the voltages they see), x exactly 0, negative x, source
// taps at either end, and bounds tight enough to clamp.
func randomLadder(rng *rand.Rand, n int, devs []*device.Tabulated) *ladder {
	l := newLadder(n, 0.5+rng.Float64()*10)
	for i := 0; i < n; i++ {
		l.v[i] = rng.Float64()*4 - 1
		switch r := rng.Intn(10); {
		case r < 2: // no load
		case r < 3: // load at zero bias: x == 0 exactly
			l.setLoad(i, devs[rng.Intn(len(devs))], l.v[i])
		default:
			l.setLoad(i, devs[rng.Intn(len(devs))], rng.Float64()*4-1)
		}
	}
	if n > 1 || rng.Intn(2) == 0 {
		if rng.Intn(3) > 0 {
			l.setSource(0, rng.Float64()*3, 10+rng.Float64()*100)
		}
		if rng.Intn(2) == 0 {
			l.setSource(n-1, rng.Float64()*3, 10+rng.Float64()*100)
		}
		if n > 2 && rng.Intn(2) == 0 {
			l.setSource(1+rng.Intn(n-2), rng.Float64()*3, 10+rng.Float64()*100)
		}
	}
	if rng.Intn(3) > 0 {
		lo := rng.Float64() * 0.5
		l.setBounds(lo, lo+0.5+rng.Float64()*2)
	}
	return l
}

// TestSweepBitIdenticalToReference drives the inlined sweep and the
// reference side by side on randomized ladders and requires bit-equal
// node voltages, Thomas scratch and residual after every sweep.
func TestSweepBitIdenticalToReference(t *testing.T) {
	p := device.DefaultParams()
	devs := []*device.Tabulated{
		device.Tabulate(p.LRSCell(), p.Vrst*1.7, 4096),
		// Narrow tables, so |x| >= VMax is frequent, with distinct steps
		// and end slopes.
		device.Tabulate(p.BackgroundCell(0.5), 0.9, 8),
		device.Tabulate(p.LRSCell(), 1.3, 10),
		device.Tabulate(p.BackgroundCell(0.25), 1.7, 13),
	}
	rng := rand.New(rand.NewSource(15))
	var br sweepBranches
	sizes := []int{1, 2, 3, 5, 17, 64, 512}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		ref := randomLadder(rng, n, devs)
		got := cloneLadder(ref)
		for s := 0; s < 6; s++ {
			relax := 1.0
			if s%2 == 1 {
				relax = 0.05 + 0.95*rng.Float64()
			}
			br.before(ref)
			wantRes := ref.sweepReference(relax)
			gotRes := got.sweep(relax)
			br.after(ref)
			if math.Float64bits(gotRes) != math.Float64bits(wantRes) {
				t.Fatalf("trial %d (n=%d) sweep %d: residual %v, reference %v", trial, n, s, gotRes, wantRes)
			}
			for i := 0; i < n; i++ {
				for _, f := range []struct {
					name      string
					got, want float64
				}{{"v", got.v[i], ref.v[i]}, {"cp", got.cp[i], ref.cp[i]}, {"dp", got.dp[i], ref.dp[i]}} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("trial %d (n=%d) sweep %d: %s[%d] = %v, reference %v", trial, n, s, f.name, i, f.got, f.want)
					}
				}
			}
		}
	}
	for name, hits := range map[string]int{
		"x == 0": br.zero, "|x| >= VMax": br.beyond, "x < 0": br.negative, "nil load": br.noLoad,
		"clamp at vmin": br.clampLo, "clamp at vmax": br.clampHi, "diag == 0": br.degenerate,
	} {
		if hits == 0 {
			t.Errorf("branch %q never exercised", name)
		}
	}
}

// benchBitLine configures a full-size ladder as the selected bit-line
// of a worst-case 1-bit RESET on the default array.
func benchBitLine(tb testing.TB) (*ladder, float64) {
	tb.Helper()
	arr, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := arr.Config()
	va := cfg.Params.Vrst
	row := cfg.Size - 1
	l := newLadder(cfg.Size, cfg.Rwire)
	arr.resetBL(l, va, row, cfg.Params.Vrst/2, va)
	l.setLoad(row, arr.cell, 0)
	return l, va
}

// BenchmarkLadderSweep measures one secant sweep of a 512-node bit-line
// and reports the per-node cost. A sweep must not allocate: the
// benchmark fails (and make bench-guard with it) if one does.
func BenchmarkLadderSweep(b *testing.B) {
	l, va := benchBitLine(b)
	if avg := testing.AllocsPerRun(10, func() { l.sweep(1) }); avg > 0 {
		b.Fatalf("ladder sweep allocates %.1f times/op, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restart from the driver voltage every 32 sweeps, about one
		// inner solve's worth, so the sweep keeps seeing live updates.
		if i%32 == 0 {
			l.init(va)
		}
		l.sweep(1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.n), "ns/node")
}
