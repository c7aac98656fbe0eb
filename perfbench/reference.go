package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"reramsim/internal/experiments"
	"reramsim/internal/memsys"
)

// ipcRelTol is the relative IPC tolerance recorded in new references.
const ipcRelTol = 0.005

// writeReference simulates every cell the gate checks — both grids at
// every simulation seed, and every key the served workload can request
// — and writes the results to path. It refuses to record results that
// break the paper's IPC ordering or report write failures.
func writeReference(path string) error {
	var ref reference
	ref.IPCRelTol = ipcRelTol
	ref.Grid.Schemes, ref.Grid.Workloads = gridSchemes, gridWorkloads
	grids := []struct {
		g        *gridRef
		accesses int
	}{{&ref.Cold, coldAccesses}, {&ref.Long, longAccesses}}
	for _, gr := range grids {
		gr.g.Accesses = gr.accesses
		gr.g.Seeds = map[string]map[string]cellRef{}
		for s := int64(1); s <= simSeeds; s++ {
			cells, err := referenceCells(gr.accesses, s, gridPairs())
			if err != nil {
				return err
			}
			gr.g.Seeds[strconv.FormatInt(s, 10)] = cells
			fmt.Fprintf(os.Stderr, "perfbench: reference %d accesses, sim seed %d\n", gr.accesses, s)
		}
	}
	all := append(hotPairs(), coldPairs()...)
	served, err := referenceCells(servedAccesses, 0, all)
	if err != nil {
		return err
	}
	ref.Served.Accesses = servedAccesses
	ref.Served.Seed = memsys.DefaultConfig().Seed
	ref.Served.Cells = served
	blob, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// referenceCells simulates pairs on a fresh suite at the given sim seed
// (0 keeps the suite's default) and returns their reference outcomes,
// checked for write failures and the paper's ordering.
func referenceCells(accesses int, seed int64, pairs []experiments.SimPair) (map[string]cellRef, error) {
	suite, err := experiments.NewSuite(accesses)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		suite.MemCfg.Seed = seed
	}
	if err := suite.PrimeSims(pairs); err != nil {
		return nil, err
	}
	cells := make(map[string]cellRef, len(pairs))
	results := make(map[string]*memsys.Result, len(pairs))
	var workloads []string
	seen := map[string]bool{}
	for _, p := range pairs {
		r, err := suite.Sim(p.Scheme, p.Workload)
		if err != nil {
			return nil, err
		}
		cells[p.Scheme+"/"+p.Workload] = cellRef{Reads: r.Reads, Writes: r.Writes, IPC: r.IPC}
		results[p.Scheme+"/"+p.Workload] = r
		if r.WriteFailures != 0 {
			return nil, fmt.Errorf("%s/%s: %d write failures", p.Scheme, p.Workload, r.WriteFailures)
		}
		if !seen[p.Workload] {
			seen[p.Workload] = true
			workloads = append(workloads, p.Workload)
		}
	}
	if err := checkGrid(results, cells, workloads, ipcRelTol); err != nil {
		return nil, fmt.Errorf("seed %d, %d accesses: %w", seed, accesses, err)
	}
	return cells, nil
}
