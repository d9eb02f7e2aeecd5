//go:build e2e

package e2e

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/obsv"
)

// scrape fetches base's GET /metrics and parses it as Prometheus text
// exposition.
func scrape(t *testing.T, ctx context.Context, base string) map[string]*obsv.ParsedFamily {
	t.Helper()
	fams, err := obsv.ParseExposition(bytes.NewReader(expect(t, ctx, 200, "GET", base+"/metrics", nil)))
	if err != nil {
		t.Fatalf("%s/metrics is not valid exposition: %v", base, err)
	}
	return fams
}

// atLeast fails the test unless every named family is present with a
// sample sum of at least its bound.
func atLeast(t *testing.T, base string, fams map[string]*obsv.ParsedFamily, mins map[string]float64) {
	t.Helper()
	for name, bound := range mins {
		f, ok := fams[name]
		if !ok {
			t.Errorf("%s/metrics: family %s absent", base, name)
		} else if sum := f.Sum(); sum < bound {
			t.Errorf("%s/metrics: %s sum = %g, want >= %g", base, name, sum, bound)
		}
	}
}

// TestMetrics brings up all three daemons, parses every GET /metrics as
// text exposition before any traffic, then drives predicts through the
// gateway and a manifest and shard fetch through cosmoflow-shardd, and
// checks that the known counters moved.
func TestMetrics(t *testing.T) {
	t.Parallel()
	ctx := testContext(t)
	dir := filepath.Join(t.TempDir(), "data")
	run(t, ctx, "cosmoflow-datagen", "-out", dir, "-sims", "2", "-val", "1", "-test", "0",
		"-ngrid", "32", "-per-file", "4", "-seed", "5")
	_, serve := startDaemon(t, ctx, "cosmoflow-serve", "-dim", "16", "-base", "4", "-replicas", "2", "-trace")
	_, shardd := startDaemon(t, ctx, "cosmoflow-shardd", "-data", dir)
	waitHealthy(t, ctx, serve)
	_, gw := startDaemon(t, ctx, "cosmoflow-gateway", "-backends", serve, "-probe-interval", "200ms")
	waitHealthy(t, ctx, gw)
	expect(t, ctx, 200, "GET", shardd+"/healthz", nil)

	// Exposition parses on every daemon before any traffic.
	atLeast(t, serve, scrape(t, ctx, serve), map[string]float64{
		"cosmoflow_serve_requests_total":          0,
		"cosmoflow_serve_request_latency_seconds": 0,
		"cosmoflow_serve_model_ready":             0,
	})
	atLeast(t, gw, scrape(t, ctx, gw), map[string]float64{
		"cosmoflow_gateway_requests_total":     0,
		"cosmoflow_gateway_backend_up":         0,
		"cosmoflow_gateway_admission_capacity": 0,
	})
	atLeast(t, shardd, scrape(t, ctx, shardd), map[string]float64{
		"cosmoflow_shardd_requests_total": 0,
		"cosmoflow_shardd_manifest_ok":    0,
	})

	// Traffic: predicts through the gateway, a manifest and a shard
	// through shardd.
	const n = 32
	run(t, ctx, "cosmoflow-loadgen", "-addr", gw, "-n", "32", "-c", "4", "-dim", "16", "-wire", "binary")
	m, err := data.ParseManifest(expect(t, ctx, 200, "GET", shardd+"/manifest.json", nil))
	if err != nil {
		t.Fatal(err)
	}
	shards := m.Split("train")
	if len(shards) == 0 {
		t.Fatalf("no train shard listed in the manifest: %+v", m)
	}
	expect(t, ctx, 200, "GET", shardd+"/shards/"+shards[0].File, nil)

	// The counters moved.
	atLeast(t, serve, scrape(t, ctx, serve), map[string]float64{
		"cosmoflow_serve_requests_total":    n,
		"cosmoflow_serve_batch_items_total": n,
		"cosmoflow_serve_layer_ops_total":   1,
	})
	atLeast(t, gw, scrape(t, ctx, gw), map[string]float64{
		"cosmoflow_gateway_requests_total":         n,
		"cosmoflow_gateway_admitted_total":         n,
		"cosmoflow_gateway_backend_requests_total": n,
		"cosmoflow_gateway_backend_up":             1,
	})
	atLeast(t, shardd, scrape(t, ctx, shardd), map[string]float64{
		"cosmoflow_shardd_shards_served_total": 1,
		"cosmoflow_shardd_requests_total":      2,
		"cosmoflow_shardd_manifest_ok":         1,
	})
}
