// Command benchmark is the repository's one instrument for performance
// claims: five named workloads over the two budgets ROADMAP.md names (a
// training step and a predict request), end-to-end metrics gated by the
// bounds in BENCHMARK.json, and a separate traced run that attributes each
// operation to the layers it passed through. README.md in this directory
// says what every name means and how to read a result.
//
//	go run ./benchmark -workload predict.small -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload all          # every workload, both runs
//	go run ./benchmark -aa                    # the full set twice, compared
//
// It drives the system only through the packages' public entry points,
// with every server on loopback inside this process, and the program under
// test sees nothing but inputs generated from -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "seed for samples, request order and arrival schedule")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces, reports and scratch files")
		aa      = flag.Bool("aa", false, "run every workload twice untraced and compare the two sides against the bounds")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *aa:
		os.Exit(runAA(*seed, *seconds, *outDir))
	case *name == "all":
		for _, w := range workloads {
			for _, tr := range []int{0, 1} {
				if _, err := runChild(w.Name, *seed, *seconds, tr, *outDir); err != nil {
					fatal(err)
				}
			}
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q; the workloads are %v and \"all\"", *name, workloadNames()))
		}
		rep, err := run(w, runOpts{Seed: *seed, Seconds: *seconds, Traced: *trace != 0, OutDir: *outDir})
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout)
		if err := rep.write(*outDir); err != nil {
			fatal(err)
		}
		fmt.Println(rep.contractLine())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// run measures one workload in this process, pinned to benchProcs.
func run(w workload, o runOpts) (*report, error) {
	runtime.GOMAXPROCS(benchProcs)
	var rep *report
	var err error
	if w.Predict {
		rep, err = runPredict(w, o)
	} else {
		rep, err = runTrain(w, o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.finish()
	return rep, nil
}

// runChild runs one workload in a process of its own — peak_rss_mb is a
// per-process figure — passing its output through, and returns its report.
func runChild(name string, seed int64, seconds float64, trace int, outDir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	data, err := os.ReadFile(filepath.Join(outDir, reportName(name, trace != 0)))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runAA runs the untraced set twice on this binary and holds the two sides
// to the benchmark's own bounds: a benchmark that cannot agree with itself
// cannot gate anything. It returns the process exit code.
func runAA(seed int64, seconds float64, outDir string) int {
	var sides [2][]*report
	for side := range sides {
		dir := filepath.Join(outDir, fmt.Sprintf("aa-%c", 'A'+side))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		for _, w := range workloads {
			rep, err := runChild(w.Name, seed, seconds, 0, dir)
			if err != nil {
				fatal(err)
			}
			sides[side] = append(sides[side], rep)
		}
	}
	fmt.Printf("\n== A/A: same binary, same seed %d, two runs\n", seed)
	fmt.Printf("   %-16s %-18s %12s %12s %12s   %12s %12s %12s   %8s %6s\n",
		"workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "differ", "bound")
	code := 0
	for i, a := range sides[0] {
		b := sides[1][i]
		if !a.Correct || !b.Correct {
			fmt.Printf("   %-16s outputs incorrect on one side\n", a.Workload)
			code = 1
		}
		for j, d := range endToEnd {
			ma, mb := a.Metrics[j], b.Metrics[j]
			if ma.Name != d.Name || mb.Name != d.Name {
				fatal(fmt.Errorf("%s: report lists %s and %s where %s belongs", a.Workload, ma.Name, mb.Name, d.Name))
			}
			worse := worseBy(d.Better, ma.Value, mb.Value)
			if other := worseBy(d.Better, mb.Value, ma.Value); other > worse {
				worse = other
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("   %-16s %-18s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %7.2f%% %5.0f%%%s\n",
				a.Workload, ma.Name, ma.Value, ma.Q1, ma.Q3, mb.Value, mb.Q1, mb.Q3, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
