package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runOpts are the arguments of one run.
type runOpts struct {
	Seed    int64
	Seconds float64
	Traced  bool
	OutDir  string // traces, reports and scratch files go here
}

// envInfo is recorded in every report so that two reports can be told to
// come from comparable runs.
type envInfo struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setup_repeats"`
}

// metric is one reported value with the samples behind it. Share, where
// set, is the value as a share of its workload's end-to-end operation (the
// untraced step or the request p50): the most a faster layer could save.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Share float64 `json:"share,omitempty"`
	Note  string  `json:"note,omitempty"`
	Gated bool    `json:"gated,omitempty"`
}

// report is everything one run measured. Metrics are the contract's
// (end-to-end when untraced, per-layer when traced); Extra are printed
// beside them and not gated.
type report struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Traced    bool     `json:"traced"`
	Env       envInfo  `json:"env"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Extra     []metric `json:"extra,omitempty"`
}

func newReport(w workload, o runOpts) *report {
	return &report{
		Workload: w.Name, Why: w.Why, Traced: o.Traced,
		Env: envInfo{
			GitSHA: gitSHA(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed: o.Seed, Seconds: o.Seconds, Setups: setupRepeats,
		},
	}
}

// defs is the catalogue this run reports from.
func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// set records a contract metric by name; the definition supplies the unit.
func (r *report) set(name string, value float64, s summary, note string) *metric {
	for _, d := range r.defs() {
		if d.Name == name {
			r.Metrics = append(r.Metrics, metric{
				Name: name, Unit: d.Unit, Value: value, Q1: s.Q1, Q3: s.Q3, N: s.N,
				Note: note, Gated: d.Bound > 0,
			})
			return &r.Metrics[len(r.Metrics)-1]
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func (r *report) extra(name, unit string, value float64, note string) {
	r.Extra = append(r.Extra, metric{Name: name, Unit: unit, Value: value, Note: note})
}

const notApplicable = "not applicable to this workload"

// finish fills in what every run reports the same way and zeroes the
// contract metrics the workload has no meaning for, so that every run
// prints every name.
func (r *report) finish() {
	have := map[string]bool{}
	for _, m := range r.Metrics {
		have[m.Name] = true
	}
	for _, d := range r.defs() {
		if !have[d.Name] {
			r.Metrics = append(r.Metrics, metric{Name: d.Name, Unit: d.Unit, Note: notApplicable})
		}
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s — %s\n", r.Workload, mode)
	fmt.Fprintf(w, "   why: %s\n", r.Why)
	e := r.Env
	fmt.Fprintf(w, "   seed %d, %.0fs window, git %s, %s, %s, nproc %d, GOMAXPROCS %d, %d set-ups\n",
		e.Seed, e.Seconds, e.GitSHA, e.GoVersion, e.CPUModel, e.NProc, e.GOMAXPROCS, e.Setups)
	row := func(m metric) {
		line := fmt.Sprintf("   %-26s %14.6g %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", m.Q1, m.Q3, m.N)
		}
		if m.Share != 0 {
			line += fmt.Sprintf(" share %.1f%%", 100*m.Share)
		}
		if m.Gated {
			line += " [gated]"
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	var na []string
	for _, m := range r.Metrics {
		if m.Note == notApplicable {
			na = append(na, m.Name)
			continue
		}
		row(m)
	}
	if len(na) > 0 {
		fmt.Fprintf(w, "   %s, reads 0: %s\n", notApplicable, strings.Join(na, " "))
	}
	for _, m := range r.Extra {
		row(m)
	}
	fmt.Fprintf(w, "   ops attempted %d, failed %d, failed_share %.6f, outputs correct: %v\n",
		r.Attempted, r.Failed, float64(r.Failed)/math.Max(1, float64(r.Attempted)), r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func (r *report) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only non-finite values can fail, and those are checked before
	}
	return string(b)
}

func (r *report) write(dir string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, reportName(r.Workload, r.Traced)), b, 0o644)
}

func reportName(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("report-%s-trace%d.json", workload, t)
}

// repeatSetup runs a set-up setupRepeats times, tearing down all but the
// last, and returns the last environment with every set-up's seconds. Each
// set-up starts from a quiet process: the previous one's teardown leaves
// goroutines and garbage that would otherwise be timed with the next.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var env T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		start := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return env, secs, nil
}

// memStats is the part of runtime.MemStats the process-wide metrics use.
type memStats struct {
	alloc   uint64 // cumulative bytes allocated
	pauseNs uint64 // cumulative GC stop-the-world pause
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

func (m memStats) since(before memStats) memStats {
	return memStats{alloc: m.alloc - before.alloc, pauseNs: m.pauseNs - before.pauseNs}
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) // "VmHWM:  123456 kB"
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories and report "unknown".
func gitSHA() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(s, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(root, ".git", ref))
			if err != nil {
				return "unknown"
			}
			s = strings.TrimSpace(string(b))
		}
		if len(s) > 12 {
			s = s[:12]
		}
		return s
	}
	return "unknown"
}
