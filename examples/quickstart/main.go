// Quickstart: generate a tiny synthetic universe dataset, train the
// CosmoFlow network with 2 data-parallel ranks for a few epochs, and print
// parameter estimates for held-out test volumes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	fmt.Println("CosmoFlow quickstart — synthetic dark-matter volumes, 3-parameter regression")
	start := time.Now()

	// 1. Simulate ten universes (8 sub-volumes each) at laptop scale:
	//    32³-particle boxes (2 h⁻¹Mpc voxels) → 8³-voxel sub-volumes; one
	//    simulation each is held out for validation and test.
	sim := cosmo.SimConfig{NGrid: 32, BoxSize: 64, Priors: cosmo.DefaultPriors()}
	ds, err := cosmo.BuildDataset(sim, 10, 1, 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train / %d val / %d test sub-volumes of %d³ voxels (%.1fs)\n",
		len(ds.Train), len(ds.Val), len(ds.Test), ds.Config.SubVolumeDim(),
		time.Since(start).Seconds())

	// 2. Fully synchronous data-parallel training: 2 ranks, batch 1 per
	//    rank (global batch 2), ring allreduce.
	res, err := train.Run(train.Config{
		Ranks: 2, Epochs: 6,
		Topology: nn.TopologyConfig{InputDim: ds.Config.SubVolumeDim(), BaseChannels: 2, Seed: 8},
		Seed:     7,
	}, ds.Train, ds.Val)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range res.Epochs {
		fmt.Printf("epoch %d: train loss %.5f  val loss %.5f  (%v)\n",
			e.Epoch, e.TrainLoss, e.ValLoss, e.Duration.Round(time.Millisecond))
	}

	// 3. Predict cosmological parameters on the held-out simulation.
	ests := train.Evaluate(res.Net, ds.Test[:4], ds.Config.Priors)
	fmt.Println("\nheld-out parameter estimates:")
	fmt.Print(train.FormatEstimates(ests))
	re := train.RelativeErrors(ests)
	fmt.Printf("\naverage relative errors: ΩM %.3f  σ8 %.3f  ns %.3f\n", re[0], re[1], re[2])
	fmt.Printf("total time %v\n", time.Since(start).Round(time.Millisecond))
}
