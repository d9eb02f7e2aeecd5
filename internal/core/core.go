// Package core is the high-level façade of the CosmoFlow reproduction: it
// wires the cosmology data generator, the 3D CNN, the synchronous
// data-parallel trainer and the statistics baseline into a handful of
// one-call entry points used by the example programs and command-line
// tools.
//
// The paper's pipeline (§III-§V) maps onto this package as:
//
//	GenerateDataset → MUSIC + pycola simulations, voxelization, splits
//	TrainModel      → TensorFlow + MKL-DNN + CPE ML Plugin SSGD training
//	CompareBaseline → the reduced-statistics comparison of §II-A
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/stats"
	"repro/internal/train"
)

// Version identifies this reproduction release.
const Version = "1.0.0"

// DatasetConfig controls synthetic dataset generation.
type DatasetConfig struct {
	// Sims is the number of simulated universes; each yields 8 sub-volume
	// samples (§IV-C). ValSims and TestSims whole simulations are held out.
	Sims, ValSims, TestSims int
	// NGrid is the particle grid per dimension (power of two). The paper
	// uses 512 (→128³ sub-volumes); 64 (→16³) is laptop scale.
	NGrid int
	// BoxMpc is the comoving box side in h⁻¹Mpc; 0 keeps the paper's
	// 2 h⁻¹Mpc voxel resolution by scaling with NGrid.
	BoxMpc float64
	Seed   int64
}

// GenerateDataset runs the full synthetic pipeline and returns the split
// dataset.
func GenerateDataset(cfg DatasetConfig) (*cosmo.Dataset, error) {
	if cfg.Sims == 0 {
		return nil, fmt.Errorf("core: Sims must be positive")
	}
	if cfg.NGrid == 0 {
		cfg.NGrid = 64
	}
	if cfg.BoxMpc == 0 {
		cfg.BoxMpc = 2 * float64(cfg.NGrid) // 2 h⁻¹Mpc voxels, as in §IV-C
	}
	sim := cosmo.SimConfig{NGrid: cfg.NGrid, BoxSize: cfg.BoxMpc, Priors: cosmo.DefaultPriors()}
	return cosmo.BuildDataset(sim, cfg.Sims, cfg.ValSims, cfg.TestSims, cfg.Seed)
}

// TrainConfig controls an end-to-end training run.
type TrainConfig struct {
	Ranks, Epochs int
	// BaseChannels scales network width (16 = paper scale).
	BaseChannels int
	// Helpers is the allreduce helper-team count (4 on Cori, §III-D).
	Helpers int
	// Algorithm selects the gradient collective (default ring).
	Algorithm comm.Algorithm
	Seed      int64
}

// TrainModel trains the CosmoFlow network on a dataset and returns the
// trainer result (per-epoch losses, trained replica).
func TrainModel(cfg TrainConfig, ds *cosmo.Dataset) (*train.Result, error) {
	if len(ds.Train) == 0 {
		return nil, fmt.Errorf("core: dataset has no training samples")
	}
	if cfg.BaseChannels == 0 {
		cfg.BaseChannels = 4
	}
	if cfg.Helpers == 0 {
		cfg.Helpers = 4
	}
	dim := ds.Train[0].Dim
	tc := train.Config{
		Ranks:  cfg.Ranks,
		Epochs: cfg.Epochs,
		Topology: nn.TopologyConfig{
			InputDim:     dim,
			BaseChannels: cfg.BaseChannels,
			Seed:         cfg.Seed + 1,
		},
		Optim:     optim.Config{},
		Algorithm: cfg.Algorithm,
		Helpers:   cfg.Helpers,
		Seed:      cfg.Seed,
	}
	return train.Run(tc, ds.Train, ds.Val)
}

// Comparison holds the CNN-vs-traditional-statistics results (§II-A): the
// paper's motivating claim is that the CNN cuts relative error by up to 3×
// versus reduced statistics.
type Comparison struct {
	CNNRelErr      [3]float64 // (ΩM, σ8, ns) average relative errors
	BaselineRelErr [3]float64
	CNNEstimates   []train.Estimate
}

// CompareBaseline evaluates the trained network and the power-spectrum
// ridge baseline on the dataset's test split.
func CompareBaseline(res *train.Result, ds *cosmo.Dataset, bins int, lambda float64) (*Comparison, error) {
	if len(ds.Test) == 0 {
		return nil, fmt.Errorf("core: dataset has no test samples")
	}
	priors := ds.Config.Priors
	cnnEst := train.Evaluate(res.Net, ds.Test, priors)

	model, err := stats.FitRidge(ds.Train, bins, 1e-4+lambda)
	if err != nil {
		return nil, err
	}
	baseEst := make([]train.Estimate, 0, len(ds.Test))
	for _, s := range ds.Test {
		pred, err := model.Predict(s)
		if err != nil {
			return nil, err
		}
		baseEst = append(baseEst, train.Estimate{
			True: priors.Denormalize(s.Target),
			Pred: priors.Denormalize(pred),
		})
	}
	return &Comparison{
		CNNRelErr:      train.RelativeErrors(cnnEst),
		BaselineRelErr: train.RelativeErrors(baseEst),
		CNNEstimates:   cnnEst,
	}, nil
}

// PaperRelativeErrors returns the per-parameter relative errors the paper
// reports (§VII-A) for the converged 2048-node run and the under-trained
// 8192-node run, for side-by-side reporting.
func PaperRelativeErrors() (converged, undertrained [3]float64) {
	return [3]float64{0.0022, 0.0094, 0.0096}, [3]float64{0.052, 0.014, 0.022}
}
