// Hyperparameter search: the ensemble-training usage of HPC the paper
// describes in §II-C and lists as newly practical in §VII-B. Random-samples
// learning-rate and LARC-trust configurations around the paper's published
// values, trains each one in turn, and reports the outcomes ranked by
// validation loss.
//
// Run with:
//
//	go run ./examples/hyperparam_search
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/train"
)

// trial is one sampled configuration and its outcome.
type trial struct {
	eta0, etaMin, trust float64
	trainLoss, valLoss  float64
}

// logUniform samples from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

func main() {
	log.SetFlags(0)
	start := time.Now()

	rng := rand.New(rand.NewSource(1))
	var data []*cosmo.Sample
	for i := 0; i < 24; i++ {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		data = append(data, cosmo.SyntheticSample(8, target, rng.Int63()))
	}
	trainSet, valSet := data[:16], data[16:]

	// The ranges bracket the paper's published values (η0 = 2e-3,
	// ηmin = 1e-4, trust = 0.002); trials run one at a time.
	const nTrials, seed = 6, 2
	fmt.Printf("random search: %d trials, one at a time (η0, ηmin, LARC trust)\n\n", nTrials)
	draw := rand.New(rand.NewSource(seed))
	trials := make([]trial, nTrials)
	for i := range trials {
		t := &trials[i]
		t.eta0 = logUniform(draw, 5e-4, 1e-2)
		t.etaMin = logUniform(draw, 1e-5, 5e-4)
		t.trust = logUniform(draw, 5e-4, 1e-2)
		res, err := train.Run(train.Config{
			Ranks: 1, Epochs: 4,
			Topology: nn.TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1},
			Optim: optim.Config{
				TrustCoef: t.trust,
				// DecaySteps is filled by the trainer to span the run.
				Schedule: optim.PolySchedule{Eta0: t.eta0, EtaMin: t.etaMin},
			},
			Seed: seed + int64(i)*7919,
		}, trainSet, valSet)
		if err != nil {
			log.Fatalf("trial %d: %v", i, err)
		}
		t.trainLoss, t.valLoss = res.FinalTrainLoss(), res.FinalValLoss()
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].valLoss < trials[j].valLoss })

	fmt.Printf("%4s %10s %10s %10s %12s %12s\n", "rank", "η0", "ηmin", "trust", "train loss", "val loss")
	for i, t := range trials {
		fmt.Printf("%4d %10.2e %10.2e %10.2e %12.5f %12.5f\n",
			i+1, t.eta0, t.etaMin, t.trust, t.trainLoss, t.valLoss)
	}
	best := trials[0]
	fmt.Printf("\nwinner: η0=%.2e ηmin=%.2e trust=%.2e (paper's published values: 2e-3, 1e-4, 2e-3)\n",
		best.eta0, best.etaMin, best.trust)
	fmt.Printf("total time %v\n", time.Since(start).Round(time.Millisecond))
}
