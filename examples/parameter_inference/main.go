// Parameter inference: the Figure-6 / §VII-A experiment at laptop scale.
//
// Trains the CosmoFlow network on physically simulated volumes, reports the
// per-parameter relative errors next to the paper's 2048- and 8192-node
// results, and compares against the traditional power-spectrum baseline
// (§II-A) that deep learning is claimed to beat. Also demonstrates the
// Figure-5 effect: the same data split across more ranks (larger global
// batch) converges more slowly per epoch.
//
// Run with:
//
//	go run ./examples/parameter_inference
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/train"
)

// The paper's per-parameter (ΩM, σ8, ns) relative errors (§VII-A): the
// converged 2048-node run and the under-trained 8192-node run.
var (
	paperConverged    = [3]float64{0.0022, 0.0094, 0.0096}
	paperUndertrained = [3]float64{0.052, 0.014, 0.022}
)

func main() {
	log.SetFlags(0)
	start := time.Now()

	sim := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, 24, 2, 2, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train / %d val / %d test sub-volumes (%d³ voxels)\n\n",
		len(ds.Train), len(ds.Val), len(ds.Test), ds.Config.SubVolumeDim())

	// Figure-5 analogue: identical data and epochs, increasing rank count.
	// More ranks = larger global batch = fewer optimizer steps per epoch,
	// so per-epoch convergence degrades, exactly as the 8192-node run lags
	// the 2048-node run in the paper.
	fmt.Println("=== Figure 5 analogue: convergence vs global batch size ===")
	fmt.Printf("%6s %18s %18s\n", "ranks", "final train loss", "final val loss")
	var cnnErr, baseErr [3]float64
	for _, ranks := range []int{2, 8} {
		res, err := train.Run(train.Config{
			Ranks: ranks, Epochs: 8,
			Topology: nn.TopologyConfig{InputDim: ds.Config.SubVolumeDim(), BaseChannels: 2, Seed: 6},
			Helpers:  4,
			Seed:     5,
		}, ds.Train, ds.Val)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %18.5f %18.5f\n", ranks, res.FinalTrainLoss(), res.FinalValLoss())
		if ranks == 2 {
			cnnErr, baseErr, err = compareBaseline(res, ds)
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\n=== Figure 6 / §VII-A analogue: parameter estimation accuracy ===")
	fmt.Printf("%-28s %10s %10s %10s\n", "", "ΩM", "σ8", "ns")
	for _, row := range []struct {
		name string
		re   [3]float64
	}{
		{"this run (CNN)", cnnErr},
		{"this run (P(k) baseline)", baseErr},
		{"paper, 2048 nodes converged", paperConverged},
		{"paper, 8192 nodes short run", paperUndertrained},
	} {
		fmt.Printf("%-28s %10.4f %10.4f %10.4f\n", row.name, row.re[0], row.re[1], row.re[2])
	}
	// The verdicts are read off this run's table, not the paper's.
	params := [3]string{"ΩM", "σ8", "ns"}
	var winners []string
	easiest := 0
	for i, p := range params {
		w := "CNN"
		if baseErr[i] < cnnErr[i] {
			w = "P(k) baseline"
		}
		winners = append(winners, p+": "+w)
		if cnnErr[i] < cnnErr[easiest] {
			easiest = i
		}
	}
	fmt.Printf("\n(absolute errors differ — the paper trains 99k 128³ volumes for 130 epochs;"+
		"\n this run is laptop-scale. Lower error here, per parameter: %s."+
		"\n The CNN's smallest error here is on %s; the paper's converged run has it on ΩM)\n",
		strings.Join(winners, ", "), params[easiest])
	fmt.Printf("\ntotal time %v\n", time.Since(start).Round(time.Millisecond))
}

// compareBaseline scores the trained network and a 4-bin power-spectrum
// ridge regression (§II-A) on the test split, returning each one's average
// per-parameter relative errors.
func compareBaseline(res *train.Result, ds *cosmo.Dataset) (cnn, baseline [3]float64, err error) {
	priors := ds.Config.Priors
	model, err := stats.FitRidge(ds.Train, 4, 1e-4)
	if err != nil {
		return cnn, baseline, err
	}
	baseEst := make([]train.Estimate, 0, len(ds.Test))
	for _, s := range ds.Test {
		pred, err := model.Predict(s)
		if err != nil {
			return cnn, baseline, err
		}
		baseEst = append(baseEst, train.Estimate{
			True: priors.Denormalize(s.Target),
			Pred: priors.Denormalize(pred),
		})
	}
	cnn = train.RelativeErrors(train.Evaluate(res.Net, ds.Test, priors))
	return cnn, train.RelativeErrors(baseEst), nil
}
