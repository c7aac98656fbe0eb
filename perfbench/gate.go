package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"reramsim/internal/memsys"
)

// The correctness gate. Every run of every workload compares the
// program's results against reference.json, recorded from the commit
// that introduced the benchmark:
//
//   - Reads and Writes per cell match exactly (they depend only on the
//     generated trace);
//   - IPC lies within IPCRelTol of its reference, so a solver change that
//     moves numerics slightly still passes;
//   - WriteFailures is 0;
//   - per workload, IPC orders as in the paper: Base < Hard+Sys < UDRVR+PR.
//
// Regenerate the file with -write-reference only when a change is meant
// to move results, and say so in the change.

//go:embed reference.json
var referenceJSON []byte

// cellRef is the reference outcome of one (scheme, workload) cell.
type cellRef struct {
	Reads  uint64  `json:"reads"`
	Writes uint64  `json:"writes"`
	IPC    float64 `json:"ipc"`
}

// gridRef holds a grid's reference cells per simulation seed.
type gridRef struct {
	Accesses int                           `json:"accesses"`
	Seeds    map[string]map[string]cellRef `json:"seeds"` // sim seed -> "scheme/workload" -> ref
}

// reference is the whole of reference.json.
type reference struct {
	IPCRelTol float64 `json:"ipcRelTol"`
	Grid      struct {
		Schemes   []string `json:"schemes"`
		Workloads []string `json:"workloads"`
	} `json:"grid"`
	Cold   gridRef `json:"coldSweep"`
	Long   gridRef `json:"longSim"`
	Served struct {
		Accesses int                `json:"accesses"`
		Seed     int64              `json:"seed"`
		Cells    map[string]cellRef `json:"cells"`
	} `json:"served"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if r.IPCRelTol <= 0 || len(r.Cold.Seeds) == 0 || len(r.Long.Seeds) == 0 || len(r.Served.Cells) == 0 {
		return nil, fmt.Errorf("reference.json: incomplete")
	}
	return &r, nil
}

// simSeeds is how many simulation seeds the reference covers; a
// workload seed selects one of them (simSeed).
const simSeeds = 8

// simSeed maps a workload seed onto the simulation seeds the reference
// covers: the same workload seed always gives the same trace.
func simSeed(seed int64) int64 {
	return 1 + ((seed%simSeeds)+simSeeds)%simSeeds
}

// cells returns the reference cells of g at sim seed s.
func (g *gridRef) cells(s int64) (map[string]cellRef, error) {
	c, ok := g.Seeds[strconv.FormatInt(s, 10)]
	if !ok {
		return nil, fmt.Errorf("no reference for sim seed %d", s)
	}
	return c, nil
}

// checkCell compares one decoded result with its reference.
func checkCell(key string, got *memsys.Result, want cellRef, tol float64) error {
	switch {
	case got.Reads != want.Reads || got.Writes != want.Writes:
		return fmt.Errorf("%s: reads/writes %d/%d, want %d/%d", key, got.Reads, got.Writes, want.Reads, want.Writes)
	case got.WriteFailures != 0:
		return fmt.Errorf("%s: %d write failures", key, got.WriteFailures)
	case !(math.Abs(got.IPC-want.IPC) <= tol*math.Abs(want.IPC)):
		return fmt.Errorf("%s: IPC %.6g, reference %.6g (tolerance %g)", key, got.IPC, want.IPC, tol)
	}
	return nil
}

// paperOrder lists the schemes whose IPC must rise in this order on
// every workload.
var paperOrder = []string{"Base", "Hard+Sys", "UDRVR+PR"}

// checkGrid gates a finished grid: every reference cell must be present
// and match, and IPC must follow the paper's ordering on each workload.
func checkGrid(got map[string]*memsys.Result, want map[string]cellRef, workloads []string, tol float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r, ok := got[k]
		if !ok {
			return fmt.Errorf("%s: no result", k)
		}
		if err := checkCell(k, r, want[k], tol); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		for i := 1; i < len(paperOrder); i++ {
			lo, hi := got[paperOrder[i-1]+"/"+w], got[paperOrder[i]+"/"+w]
			if lo == nil || hi == nil {
				continue
			}
			if !(lo.IPC < hi.IPC) {
				return fmt.Errorf("%s: IPC of %s (%.4g) not below %s (%.4g)",
					w, paperOrder[i-1], lo.IPC, paperOrder[i], hi.IPC)
			}
		}
	}
	return nil
}

// decodeCells decodes journal payloads (one memsys.Result each).
func decodeCells(done map[string][]byte) (map[string]*memsys.Result, error) {
	out := make(map[string]*memsys.Result, len(done))
	for k, b := range done {
		var r memsys.Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: decoding result: %w", k, err)
		}
		out[k] = &r
	}
	return out, nil
}
