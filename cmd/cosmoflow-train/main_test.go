package main

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/optim"
	"repro/internal/train"
)

// tracedRun trains a tiny 2-rank world for two epochs with rank 0's
// timeline attached, as -profile, -timeline-out or -debug-addr would.
func tracedRun(t *testing.T) (*train.Result, *obsv.Timeline, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	set := make([]*cosmo.Sample, 8)
	for i := range set {
		set[i] = cosmo.SyntheticSample(8, [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}, rng.Int63())
	}
	tl := obsv.NewTimeline(0, 0)
	res, err := train.Run(train.Config{
		Ranks:    2,
		Epochs:   2,
		Topology: nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1},
		Optim:    optim.Config{Schedule: optim.PolySchedule{Eta0: 2e-3, EtaMin: 1e-4}},
		Timeline: tl,
		Seed:     7,
	}, set, set[:2])
	if err != nil {
		t.Fatal(err)
	}
	return res, tl, len(set) / 2 * 2
}

// The -debug-addr registry reads everything from the local rank's
// timeline: after a finished run, every cosmoflow_train_* family parses
// as Prometheus text, says in its HELP what it counts, and agrees with
// the run.
func TestTrainMetricsFromTimeline(t *testing.T) {
	_, tl, steps := tracedRun(t)
	var b strings.Builder
	if err := trainMetrics(tl, 2, nil).Write(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obsv.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, help := range map[string]string{
		"cosmoflow_train_phase_seconds_total": "step phases and collectives, from its timeline (cumulative seconds)",
		"cosmoflow_train_phase_ops_total":     "step phases and collectives, from its timeline (observation count)",
		"cosmoflow_train_steps_total":         "optimizer steps",
		"cosmoflow_train_epoch":               "epochs completed",
		"cosmoflow_train_samples_per_second":  "samples per second",
		"cosmoflow_train_uptime_seconds":      "seconds since",
	} {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from the exposition", name)
			continue
		}
		if !strings.Contains(f.Help, help) {
			t.Errorf("%s HELP %q does not say it counts %q", name, f.Help, help)
		}
	}
	value := func(name string, labels map[string]string) float64 {
		v, ok := fams[name].Value(name, labels)
		if !ok {
			t.Fatalf("%s%v has no sample", name, labels)
		}
		return v
	}
	if got := value("cosmoflow_train_steps_total", nil); got != float64(steps) {
		t.Errorf("steps_total = %v, want %d", got, steps)
	}
	if got := value("cosmoflow_train_epoch", nil); got != 2 {
		t.Errorf("epoch = %v, want 2", got)
	}
	if got := value("cosmoflow_train_phase_ops_total", map[string]string{"span": "forward"}); got != float64(steps) {
		t.Errorf("forward ops = %v, want %d", got, steps)
	}
	if got := value("cosmoflow_train_phase_seconds_total", map[string]string{"span": "backward"}); got <= 0 {
		t.Errorf("backward seconds = %v, want positive", got)
	}
	if got := value("cosmoflow_train_samples_per_second", nil); got <= 0 {
		t.Errorf("samples_per_second = %v, want positive", got)
	}
}

// -profile prints rank 0's phase shares from its own timeline's phase
// spans, which cover the whole run even after the ring wraps: the step
// phases appear and the shares add up to the whole.
func TestPhaseSharesFromTimeline(t *testing.T) {
	_, tl, _ := tracedRun(t)
	out := phaseShares(tl.Phases().Snapshot())
	var sum float64
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasSuffix(fields[len(fields)-1], "%") {
			continue
		}
		share, err := strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], "%"), 64)
		if err != nil {
			t.Fatalf("share in %q: %v", line, err)
		}
		seen[fields[0]] = true
		sum += share
	}
	for _, phase := range []string{"data_wait", "forward", "backward", "allreduce", "optimizer", "eval"} {
		if !seen[phase] {
			t.Errorf("no %s row in\n%s", phase, out)
		}
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("shares sum to %.1f%%, want 100%%\n%s", sum, out)
	}
}
