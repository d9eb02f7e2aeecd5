//go:build e2e

package e2e

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// killAndResume runs a TCP world that dies after epoch abortAfter, and
// checks that the launcher relaunched it from the checkpoint and that the
// resumed epochs match want bit for bit.
func killAndResume(t *testing.T, ctx context.Context, want []string, abortAfter int, args ...string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "world.ckpt")
	args = append(args, "-ckpt", ckpt, "-abort-after", strconv.Itoa(abortAfter), "-max-restarts", "1")
	out, err := runCombined(ctx, "cosmoflow-train", args...)
	if err != nil {
		t.Fatalf("killed world did not finish after its relaunch (%v):\n%s", err, out)
	}
	if !strings.Contains(out, "relaunching from") {
		t.Fatalf("launcher never relaunched the failed world:\n%s", out)
	}
	sameRows(t, "resumed epochs against the uninterrupted run", losses(out), fromEpoch(want, abortAfter))
}

// TestDist checks that a 4-process TCP world reproduces the in-process
// 4-rank world's losses bit for bit, and that a world killed after epoch 2
// relaunches and resumes from its checkpoint with the same losses.
func TestDist(t *testing.T) {
	t.Parallel()
	ctx := testContext(t)
	args := []string{"-synthetic", "16", "-dim", "8", "-base", "2", "-epochs", "4", "-seed", "7"}
	ref := losses(run(t, ctx, "cosmoflow-train", append([]string{"-ranks", "4"}, args...)...))
	world := append([]string{"-launch", "4"}, args...)
	sameRows(t, "4-process TCP world against the in-process run",
		losses(run(t, ctx, "cosmoflow-train", world...)), ref)
	killAndResume(t, ctx, ref, 2, world...)
}

// TestData streams a sharded TFRecord dataset into a 2-process world,
// from local shards and over HTTP from cosmoflow-shardd, bit-identical to
// the in-process streaming run both ways; a world killed mid-run while
// streaming remotely resumes from its checkpoint bit-identically.
func TestData(t *testing.T) {
	t.Parallel()
	ctx := testContext(t)
	data := filepath.Join(t.TempDir(), "data")
	run(t, ctx, "cosmoflow-datagen", "-out", data, "-sims", "3", "-val", "1", "-test", "0",
		"-ngrid", "32", "-per-file", "4", "-seed", "5")
	if _, err := os.Stat(filepath.Join(data, "manifest.json")); err != nil {
		t.Fatalf("datagen wrote no manifest: %v", err)
	}
	args := []string{"-epochs", "3", "-base", "2", "-seed", "7"}
	ref := losses(run(t, ctx, "cosmoflow-train", append([]string{"-stream", "-data", data, "-ranks", "2"}, args...)...))
	sameRows(t, "local-shard TCP world against the in-process run",
		losses(run(t, ctx, "cosmoflow-train", append([]string{"-stream", "-data", data, "-launch", "2"}, args...)...)), ref)

	_, shardd := startDaemon(t, ctx, "cosmoflow-shardd", "-data", data)
	expect(t, ctx, 200, "GET", shardd+"/healthz", nil)
	remote := append([]string{"-data-url", shardd, "-launch", "2"}, args...)
	sameRows(t, "remote-shard TCP world against the in-process run",
		losses(run(t, ctx, "cosmoflow-train", remote...)), ref)
	killAndResume(t, ctx, ref, 1, remote...)
}

// TestTimeline traces a 4-process world slowed by an injected 10 ms
// forward delay on rank 2: its losses equal the untraced baseline's, the
// trace reads back strictly as Chrome trace-event JSON, and the straggler
// report cosmoflow-tracecat prints names rank 2 with the excess on
// forward.
func TestTimeline(t *testing.T) {
	ctx := testContext(t)
	args := []string{"-launch", "4", "-synthetic", "16", "-dim", "8", "-base", "2", "-epochs", "2", "-seed", "7"}
	ref := losses(run(t, ctx, "cosmoflow-train", args...))
	trace := filepath.Join(t.TempDir(), "run.trace.json")
	traced := append(args, "-timeline-out", trace, "-slow-rank", "2", "-slow-ms", "10")
	sameRows(t, "traced, delayed world against the untraced baseline",
		losses(run(t, ctx, "cosmoflow-train", traced...)), ref)

	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	tls, err := obsv.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	rep := obsv.BuildStragglerReport(tls)
	report := run(t, ctx, "cosmoflow-tracecat", trace)
	if want := rep.String(); report != want {
		t.Fatalf("cosmoflow-tracecat printed\n%s\nwant the library's report\n%s", report, want)
	}
	for _, want := range []string{"slowest rank: 2", "largest excess: forward"} {
		if !strings.Contains(report, want) {
			t.Fatalf("straggler report lacks %q:\n%s", want, report)
		}
	}
	// Rank 2 sleeps 10 ms in every forward, so its mean forward cannot be
	// shorter; with no delay injected, rank 2 is slowest only by chance.
	fwd := -1.0
	for _, ph := range rep.Phases {
		for _, c := range ph.Ranks {
			if ph.Name == "forward" && c.Rank == 2 {
				fwd = c.MeanMs
			}
		}
	}
	if fwd < 10 {
		t.Fatalf("rank 2's mean forward is %.2f ms, want at least the injected 10 ms:\n%s", fwd, report)
	}
}
