package main

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"
)

// shrunk keeps a workload's shape — ranks, transport, loop kind, clients —
// at sizes that run in a fraction of a second.
func shrunk(w workload) workload {
	w.Dim, w.Base = 8, 2
	if !w.Predict {
		w.Epochs = 2
	}
	return w
}

// TestEveryWorkloadRuns drives each workload through both kinds of run for
// about a second, so that a change to an entry point the benchmark uses
// fails here, in tier-1, and not later in the measuring pipeline.
func TestEveryWorkloadRuns(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/end-to-end"
			if traced {
				name = w.Name + "/per-layer"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(shrunk(w), runOpts{Seed: 5, Seconds: 0.6, Traced: traced, OutDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d, problems %v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				var line struct {
					Metrics map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(rep.contractLine()), &line); err != nil {
					t.Fatal(err)
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("contract line has %d metrics, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: present %v, unit %q, value %g", d.Name, ok, m.Unit, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g; it must never be 0", d.Name, m.Value)
					}
				}
				if rep.Env.GOMAXPROCS != benchProcs {
					t.Errorf("ran at GOMAXPROCS %d", rep.Env.GOMAXPROCS)
				}
			})
		}
	}
}
