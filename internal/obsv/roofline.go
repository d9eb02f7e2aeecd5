package obsv

// roofline.go joins the two halves the substrate already measures — each
// layer's analytic FLOP count (nn.Layer.FwdFLOPs) and its observed wall
// time (ForwardTrace spans) — into the per-layer GFLOP/s attribution the
// ROADMAP's kernel work needs as a feedback loop: which layers run near
// the machine's best observed rate and which leave FLOPs on the table
// (the paper's §V-A Gflop/s accounting, made continuous).

// LayerRoofline is one layer's FLOPs-vs-time attribution. It is part of
// the v1 wire surface (internal/serve/api aliases it into the
// GET /v1/roofline response), hence the JSON tags.
type LayerRoofline struct {
	Layer string `json:"layer"`
	// FLOPsPerSample is the layer's analytic forward FLOP count for one
	// sample at the model's input shape.
	FLOPsPerSample int64 `json:"flops_per_sample"`
	// Observations is the number of span observations (micro-batch
	// dispatches in serving, forward passes for single-sample inference).
	Observations int64 `json:"observations"`
	// TotalMs is the cumulative wall time inside the layer.
	TotalMs float64 `json:"total_ms"`
	// AvgMs is the mean wall time per observation.
	AvgMs float64 `json:"avg_ms"`
	// GFLOPS is the achieved forward rate: FLOPsPerSample × samples over
	// TotalMs. Zero-FLOP layers (Flatten) report 0.
	GFLOPS float64 `json:"gflops"`
	// PctOfBest is GFLOPS as a percentage of the best GFLOPS observed
	// across the layers in this snapshot — low values mark FLOP-starved
	// layers, the candidates for kernel work.
	PctOfBest float64 `json:"pct_of_best"`
}

// BuildRoofline joins per-layer spans with their analytic FLOP counts.
// layers and flopsPerSample are index-aligned with the network's layer
// stack; samples is the total number of samples the spans cover (batched
// serving dispatches observe a whole micro-batch per span observation, so
// samples is the batch-item total, not the span count). Layers without
// observations or FLOPs report zero GFLOPS and are excluded from the
// pct-of-best denominator.
func BuildRoofline(layers []SpanStat, flopsPerSample []int64, samples int64) []LayerRoofline {
	n := len(layers)
	if len(flopsPerSample) < n {
		n = len(flopsPerSample)
	}
	out := make([]LayerRoofline, 0, n)
	best := 0.0
	for i := 0; i < n; i++ {
		lr := LayerRoofline{
			Layer:          layers[i].Name,
			FLOPsPerSample: flopsPerSample[i],
			Observations:   layers[i].Count,
			TotalMs:        layers[i].TotalMs,
			AvgMs:          layers[i].AvgMs,
		}
		if lr.FLOPsPerSample > 0 && lr.TotalMs > 0 && samples > 0 {
			lr.GFLOPS = float64(lr.FLOPsPerSample) * float64(samples) / (lr.TotalMs / 1e3) / 1e9
			if lr.GFLOPS > best {
				best = lr.GFLOPS
			}
		}
		out = append(out, lr)
	}
	if best > 0 {
		for i := range out {
			if out[i].GFLOPS > 0 {
				out[i].PctOfBest = out[i].GFLOPS / best * 100
			}
		}
	}
	return out
}
