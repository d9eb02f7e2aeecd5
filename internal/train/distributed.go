package train

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// ErrAborted marks a deliberate AbortAfterEpoch failure (fault injection).
var ErrAborted = errors.New("aborted by fault injection")

// RunDistributed executes Algorithm 2 for exactly one rank of a
// multi-process world, with c joined over internal/dist (or any
// comm.Transport). Every process must call it with the same Config,
// training set, and validation set — deterministic dataset sharding takes
// care of the rest, and the run is bit-identical to an in-process
// Run with Ranks = c.Size() at the same seed: replicas are built with the
// same per-rank topology seeds and equalized by the same rank-0 broadcast,
// the shard iterator deals the same permutations, and the collectives
// reduce in the same chunk order over either transport.
//
// Rank 0 writes training-state checkpoints (CheckpointPath) and drives
// resume (ResumeFrom) exactly as the in-process loop does; non-zero ranks
// receive parameters, optimizer accumulators, and the resume epoch through
// broadcasts. The returned Result carries per-epoch statistics only on
// rank 0 (they are globally averaged by the collectives); other ranks get
// the trained replica and timing only. A Config.Timeline must record
// c.Rank(); each process traces its own rank.
//
// A transport failure mid-collective (peer death) surfaces as an error
// wrapping *comm.TransportError: the caller should exit nonzero and let
// the launcher relaunch the world, which resumes from the last checkpoint.
func RunDistributed(cfg Config, c *comm.Comm, trainSet, valSet []*cosmo.Sample) (*Result, error) {
	cfg, stepsPerEpoch, err := prepareRun(cfg, trainSet)
	if err != nil {
		return nil, err
	}
	if cfg.Ranks != c.Size() {
		return nil, fmt.Errorf("train: config Ranks %d does not match world size %d", cfg.Ranks, c.Size())
	}
	rank := c.Rank()
	if err := checkTimelineRank(cfg.Timeline, rank); err != nil {
		return nil, err
	}

	topo := cfg.Topology
	topo.Seed += int64(rank) // same differing inits as Run; broadcast equalizes
	pool := parallel.NewPool(cfg.WorkersPerRank)
	defer pool.Close()
	topo.Pool = pool
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		return nil, err
	}

	res := &Result{GradBytes: 4 * net.GradSize()}
	res.Epochs = make([]EpochStats, cfg.Epochs)

	start := time.Now()
	if err := runRankRecovering(cfg, rank, c, net, trainSet, valSet, stepsPerEpoch, res); err != nil {
		return nil, err
	}
	res.TotalTime = time.Since(start)
	res.Net = net
	return res, nil
}

// runRankRecovering converts the *comm.TransportError panic a failing
// transport raises mid-collective into an ordinary error, so a peer death
// unwinds this rank instead of crashing the process without cleanup.
func runRankRecovering(cfg Config, rank int, c *comm.Comm, net *nn.Network,
	trainSet, valSet []*cosmo.Sample, stepsPerEpoch int, res *Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(*comm.TransportError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("train: rank %d world failure: %w", rank, te)
		}
	}()
	return runRank(cfg, rank, c, net, trainSet, valSet, stepsPerEpoch, res)
}
