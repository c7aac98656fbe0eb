package xpoint

import (
	"fmt"
	"sync"

	"reramsim/internal/device"
)

// Array is a simulatable cross-point MAT. It caches tabulated device
// models for the hot ladder loops. An Array is safe for concurrent use:
// its configuration, tabulated models and prototype load table are
// immutable after New, and each solve checks a private solve context
// (ladders + scratch) out of an internal pool, so independent solves on
// one Array may run in parallel and steady-state solves do not allocate.
type Array struct {
	cfg Config

	cell *device.Tabulated // selected LRS cell under RESET
	half *device.Tabulated // background half-selected blend (LRSFrac LRS)

	rtrunk float64 // shared word-line trunk resistance (ohm)

	// protoLoads is the fully half-selected load row: every bit-line and
	// word-line ladder starts as this background with one or two nodes
	// overridden, so per-op setup is a copy() instead of Size setLoad
	// calls. Never mutated after New.
	protoLoads []*device.Tabulated

	ctxs sync.Pool // *solveCtx
}

// New builds an Array from cfg. It returns an error rather than panicking
// because configs are frequently user-assembled in sweeps.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	vmax := p.Vrst * 1.7
	a := &Array{
		cfg:    cfg,
		cell:   device.Tabulate(p.LRSCell(), vmax, 4096),
		half:   device.Tabulate(p.BackgroundCell(cfg.LRSFrac), vmax, 4096),
		rtrunk: cfg.TrunkCoeff * float64(cfg.Size) * cfg.Rwire,
	}
	a.protoLoads = make([]*device.Tabulated, cfg.Size)
	for i := range a.protoLoads {
		a.protoLoads[i] = a.half
	}
	a.ctxs.New = func() any { return &solveCtx{} }
	return a, nil
}

// MustNew is New for static configs known to be valid.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("xpoint: %v", err))
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }
