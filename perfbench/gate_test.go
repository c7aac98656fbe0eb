package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"reramsim/internal/memsys"
)

// referenceGrid rebuilds the results a correct cold-sweep at sim seed 1
// produces, as journal payloads.
func referenceGrid(t *testing.T) (*reference, map[string]cellRef, map[string][]byte) {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Cold.cells(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[string][]byte, len(want))
	for k, c := range want {
		scheme, workload, _ := strings.Cut(k, "/")
		b, err := json.Marshal(&memsys.Result{Scheme: scheme, Workload: workload, Reads: c.Reads, Writes: c.Writes, IPC: c.IPC})
		if err != nil {
			t.Fatal(err)
		}
		done[k] = b
	}
	return ref, want, done
}

func gateDone(ref *reference, want map[string]cellRef, done map[string][]byte) error {
	got, err := decodeCells(done)
	if err != nil {
		return err
	}
	return checkGrid(got, want, gridWorkloads, ref.IPCRelTol)
}

func TestReferenceCoversEveryKey(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= simSeeds; s++ {
		for _, g := range []*gridRef{&ref.Cold, &ref.Long} {
			cells, err := g.cells(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range gridPairs() {
				if _, ok := cells[p.Scheme+"/"+p.Workload]; !ok {
					t.Errorf("%d accesses, seed %d: no reference for %s/%s", g.Accesses, s, p.Scheme, p.Workload)
				}
			}
		}
	}
	for _, p := range append(hotPairs(), coldPairs()...) {
		if _, ok := ref.Served.Cells[p.Scheme+"/"+p.Workload]; !ok {
			t.Errorf("served: no reference for %s/%s", p.Scheme, p.Workload)
		}
	}
}

func TestGatePassesReference(t *testing.T) {
	ref, want, done := referenceGrid(t)
	if err := gateDone(ref, want, done); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedCellFailsGate alters one journal payload at a time; every
// alteration outside the IPC tolerance must fail the gate.
func TestTamperedCellFailsGate(t *testing.T) {
	const key = "Hard+Sys/mcf_m"
	cases := []struct {
		name   string
		tamper func(*memsys.Result)
		fails  bool
	}{
		{"reads", func(r *memsys.Result) { r.Reads++ }, true},
		{"writes", func(r *memsys.Result) { r.Writes-- }, true},
		{"write failures", func(r *memsys.Result) { r.WriteFailures = 1 }, true},
		{"IPC beyond tolerance", func(r *memsys.Result) { r.IPC *= 1.02 }, true},
		{"IPC below Base", func(r *memsys.Result) { r.IPC = 0.01 }, true},
		{"IPC within tolerance", func(r *memsys.Result) { r.IPC *= 1.001 }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, want, done := referenceGrid(t)
			var r memsys.Result
			if err := json.Unmarshal(done[key], &r); err != nil {
				t.Fatal(err)
			}
			c.tamper(&r)
			b, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			done[key] = b
			err = gateDone(ref, want, done)
			if c.fails && err == nil {
				t.Fatal("tampered cell passed the gate")
			}
			if !c.fails && err != nil {
				t.Fatalf("within-tolerance change failed the gate: %v", err)
			}
		})
	}
	t.Run("missing cell", func(t *testing.T) {
		ref, want, done := referenceGrid(t)
		delete(done, key)
		if err := gateDone(ref, want, done); err == nil {
			t.Fatal("missing cell passed the gate")
		}
	})
	t.Run("undecodable payload", func(t *testing.T) {
		_, _, done := referenceGrid(t)
		done[key] = []byte("{")
		if _, err := decodeCells(done); err == nil {
			t.Fatal("undecodable payload decoded")
		}
	})
}

// TestPaperOrderGate swaps two schemes' IPC on one workload and gates
// without per-cell references: the ordering check alone catches it.
func TestPaperOrderGate(t *testing.T) {
	ref, _, done := referenceGrid(t)
	got, err := decodeCells(done)
	if err != nil {
		t.Fatal(err)
	}
	got["UDRVR+PR/ast_m"].IPC, got["Hard+Sys/ast_m"].IPC = got["Hard+Sys/ast_m"].IPC, got["UDRVR+PR/ast_m"].IPC
	loose := make(map[string]cellRef) // no per-cell reference: ordering only
	if err := checkGrid(got, loose, gridWorkloads, ref.IPCRelTol); err == nil || !strings.Contains(err.Error(), "ast_m") {
		t.Fatalf("swapped ordering passed: %v", err)
	}
}

func TestServedGateRejectsWrongReply(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	req := request{Scheme: "DRVR", Workload: "tig_m", Cold: true}
	want := ref.Served.Cells[req.key()]
	good := &memsys.Result{Reads: want.Reads, Writes: want.Writes, IPC: want.IPC}
	s := &session{replies: []reply{{req: req, status: 200, result: good}}}
	if err := s.gate(ref); err != nil {
		t.Fatalf("reference reply failed: %v", err)
	}
	bad := *good
	bad.Writes++
	s.replies[0].result = &bad
	if err := s.gate(ref); !errors.Is(err, errIncorrect) {
		t.Fatalf("tampered reply: err = %v, want errIncorrect", err)
	}
}

func TestSimSeed(t *testing.T) {
	for _, seed := range []int64{-9, -1, 1 << 40, -1 << 62} {
		if s := simSeed(seed); s < 1 || s > simSeeds {
			t.Errorf("simSeed(%d) = %d outside 1..%d", seed, s, simSeeds)
		}
	}
	seen := map[int64]bool{}
	for seed := int64(100); seed < 100+simSeeds; seed++ {
		seen[simSeed(seed)] = true
	}
	if len(seen) != simSeeds {
		t.Errorf("%d consecutive workload seeds reach only %d sim seeds", simSeeds, len(seen))
	}
}
