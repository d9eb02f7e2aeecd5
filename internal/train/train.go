// Package train implements CosmoFlow's fully synchronous data-parallel
// training loop (Algorithm 2): every rank is a worker with mini-batch size
// one, gradients are averaged with a collective allreduce after every step,
// and all ranks apply identical optimizer updates, so the replicas remain
// bit-wise synchronized without a parameter server.
package train

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config controls a training run.
type Config struct {
	// Ranks is the number of data-parallel workers (MPI ranks in the
	// paper; in-process goroutine workers here). The effective global
	// batch size equals Ranks, since each rank processes one sample per
	// step (§III-B).
	Ranks int
	// Epochs is the number of passes over the training set.
	Epochs int
	// Topology configures the per-rank network replica.
	Topology nn.TopologyConfig
	// Optim configures Adam+LARC; Schedule.DecaySteps of 0 is replaced by
	// the total step count so the polynomial decay spans the whole run.
	Optim optim.Config
	// WorkersPerRank sizes each rank's intra-node compute pool.
	WorkersPerRank int
	// Seed controls data sharding order.
	Seed int64
	// Data, when non-nil, is the training set (typically a *data.Loader
	// over sharded TFRecords), and the in-memory trainSet argument must be
	// empty; when nil, trainSet trains as data.InMemory(trainSet, Seed).
	// Each rank streams its per-epoch data.Assign deal, so the sample
	// sequence is a pure function of (Seed, epoch, rank, Ranks) — what the
	// bit-identity and resume guarantees rest on. Give a Loader this same
	// Seed. Validation still uses the in-memory valSet argument (held-out
	// splits are small — see data.ReadAll).
	Data data.Dataset
	// CheckpointPath, when set, makes rank 0 save the model every
	// CheckpointEvery epochs (default: every epoch). The paper's
	// multi-epoch campaigns depend on restartability.
	CheckpointPath  string
	CheckpointEvery int
	// ResumeFrom, when set, loads a checkpoint into rank 0 before the
	// initial parameter broadcast, so every replica resumes from it. A
	// training-state checkpoint (SaveTrainState, what CheckpointPath now
	// writes) also restores the optimizer accumulators and the completed
	// epoch count, making the resumed run bit-identical to one that never
	// stopped; a plain nn parameter checkpoint resumes parameters only.
	ResumeFrom string
	// AbortAfterEpoch, when positive, makes rank 0 fail deliberately after
	// checkpointing that many epochs — fault injection for the distributed
	// resume tests and the e2e suite. Only meaningful under RunDistributed,
	// where surviving ranks detect the death and exit; an in-process world
	// would deadlock, so Run rejects it.
	AbortAfterEpoch int
	// OverlapComm starts each layer's gradient aggregation as soon as its
	// backward pass completes, overlapping communication with the
	// remaining back-propagation — the non-blocking pipelining the CPE ML
	// Plugin uses to hide straggler imbalance (§III-D).
	OverlapComm bool
	// Timeline, when non-nil, is the local rank's phase-event ring and the
	// step loop's only clock: rank 0's under Run, c.Rank()'s under
	// RunDistributed (a ring recording any other rank is rejected). Every
	// rank records data_wait, forward, backward, optimizer, checkpoint and
	// eval events, and its communicator adds one event per collective; Run
	// gives ranks 1…N−1 rings of the same Cap. After the final epoch rank 0
	// gathers every rank's ring over the transport into Result.Timelines;
	// under RunDistributed the gather runs if any rank traced, an untraced
	// rank contributing an empty timeline. The caller owns the ring, so its Phases() spans can be scraped while
	// the run is live. nil (the default) reads no clock inside a step, and
	// recorded timing never feeds the math, so the trained bits are
	// identical either way.
	Timeline *obsv.Timeline
	// InjectDelay, when positive, makes rank InjectDelayRank sleep that
	// long inside every forward phase — straggler fault injection for the
	// e2e suite's TestTimeline and the attribution tests. Sleeping never
	// touches the math, so the trained bits stay identical to an
	// undelayed run.
	InjectDelay     time.Duration
	InjectDelayRank int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("train: Ranks %d must be positive", c.Ranks)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("train: Epochs %d must be positive", c.Epochs)
	}
	return c.Topology.Validate()
}

// EpochStats summarizes one epoch.
type EpochStats struct {
	Epoch      int
	TrainLoss  float64 // global average training loss
	ValLoss    float64 // global average validation loss (NaN if no val set)
	Duration   time.Duration
	Steps      int     // steps per rank
	SamplesSec float64 // global samples/second
}

// Result is the outcome of a training run.
type Result struct {
	Epochs    []EpochStats
	Net       *nn.Network // rank 0's trained replica
	GradBytes int         // allreduce message size (28.15 MB in the paper)
	TotalTime time.Duration
	// Timelines holds every rank's gathered phase events, in rank order,
	// when Config.Timeline is set — populated on rank 0 only (the gather
	// root), ready for obsv.WriteChromeTrace / obsv.BuildStragglerReport.
	Timelines []obsv.RankTimeline
}

// FinalTrainLoss returns the last epoch's training loss.
func (r *Result) FinalTrainLoss() float64 { return r.Epochs[len(r.Epochs)-1].TrainLoss }

// FinalValLoss returns the last epoch's validation loss.
func (r *Result) FinalValLoss() float64 { return r.Epochs[len(r.Epochs)-1].ValLoss }

// Run trains on the given training samples with periodic validation,
// returning per-epoch statistics and the trained network. All ranks run in
// this process; rank 0's replica is returned (all replicas are identical at
// completion by construction).
func Run(cfg Config, trainSet, valSet []*cosmo.Sample) (*Result, error) {
	cfg, stepsPerEpoch, err := prepareRun(cfg, trainSet)
	if err != nil {
		return nil, err
	}
	if cfg.AbortAfterEpoch > 0 {
		return nil, fmt.Errorf("train: AbortAfterEpoch is distributed-only (an in-process world would deadlock)")
	}
	if err := checkTimelineRank(cfg.Timeline, 0); err != nil {
		return nil, err
	}
	tls := make([]*obsv.Timeline, cfg.Ranks)
	if tl := cfg.Timeline; tl != nil {
		tls[0] = tl
		for r := 1; r < cfg.Ranks; r++ {
			tls[r] = obsv.NewTimeline(r, tl.Cap())
		}
	}
	world, err := comm.NewWorld(cfg.Ranks)
	if err != nil {
		return nil, err
	}

	nets := make([]*nn.Network, cfg.Ranks)
	pools := make([]*parallel.Pool, cfg.Ranks)
	defer func() {
		for _, p := range pools {
			if p != nil {
				p.Close()
			}
		}
	}()
	for r := 0; r < cfg.Ranks; r++ {
		topo := cfg.Topology
		topo.Seed += int64(r) // differing inits; broadcast below equalizes
		pools[r] = parallel.NewPool(cfg.WorkersPerRank)
		topo.Pool = pools[r]
		n, err := nn.BuildCosmoFlow(topo)
		if err != nil {
			return nil, err
		}
		nets[r] = n
	}

	res := &Result{GradBytes: 4 * nets[0].GradSize()}
	res.Epochs = make([]EpochStats, cfg.Epochs)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rc := cfg
			rc.Timeline = tls[rank]
			errs[rank] = runRank(rc, rank, world.Comm(rank), nets[rank], valSet, stepsPerEpoch, res)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.TotalTime = time.Since(start)
	res.Net = nets[0]
	return res, nil
}

// prepareRun validates the configuration, resolves the training input to
// one data.Dataset in the returned cfg.Data — Config.Data, or the
// in-memory trainSet — and derives the schedule; shared by the in-process
// and distributed entry points so both worlds train over identical
// hyperparameters (a bit-identity precondition).
func prepareRun(cfg Config, trainSet []*cosmo.Sample) (Config, int, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	if cfg.Data == nil {
		cfg.Data = data.InMemory(trainSet, cfg.Seed)
	} else if len(trainSet) > 0 {
		return cfg, 0, fmt.Errorf("train: Config.Data and an in-memory training set are mutually exclusive")
	}
	// Steps first: an empty set is a too-small set, not a dim-0 one.
	stepsPerEpoch := cfg.Data.StepsPerEpoch(cfg.Ranks)
	if stepsPerEpoch < 1 {
		return cfg, 0, fmt.Errorf("train: training data cannot feed %d ranks; SSGD requires at least one sample per rank (§VII-B), and a streamed dataset one shard per rank", cfg.Ranks)
	}
	if dim := cfg.Data.Dim(); dim != cfg.Topology.InputDim {
		return cfg, 0, fmt.Errorf("train: dataset samples are dim %d but Topology.InputDim is %d", dim, cfg.Topology.InputDim)
	}
	totalSteps := stepsPerEpoch * cfg.Epochs
	if cfg.Optim.Schedule.DecaySteps == 0 {
		if cfg.Optim.Schedule.Eta0 == 0 && cfg.Optim.Schedule.EtaMin == 0 {
			cfg.Optim.Schedule = optim.DefaultSchedule(totalSteps)
		} else {
			// Caller chose the rates; span the decay over the whole run.
			cfg.Optim.Schedule.DecaySteps = totalSteps
		}
	}
	return cfg, stepsPerEpoch, nil
}

// runRank executes Algorithm 2 for one rank. Epoch statistics are written
// by rank 0 only; the loss values it records are already globally averaged
// through the collectives, so no extra synchronization is needed beyond the
// collectives themselves. cfg is prepareRun's, so cfg.Data is set;
// cfg.Timeline is this rank's ring (nil: untraced).
func runRank(cfg Config, rank int, c *comm.Comm, net *nn.Network,
	valSet []*cosmo.Sample, stepsPerEpoch int, res *Result) error {

	// Attaching the ring to the communicator makes the collectives record
	// their own events, so an overlapped allreduce shows up concurrent with
	// backward.
	tl := cfg.Timeline
	c.SetTimeline(tl)

	// Broadcast rank-0 initial parameters so all replicas start identical
	// (§V-A). A resume checkpoint, if any, is loaded first and therefore
	// reaches every replica through the same broadcast.
	var resumed *TrainState
	if rank == 0 && cfg.ResumeFrom != "" {
		var err error
		resumed, err = LoadTrainState(cfg.ResumeFrom, net)
		if err != nil {
			return fmt.Errorf("train: resuming from %s: %w", cfg.ResumeFrom, err)
		}
	}
	params := make([]float32, net.ParamCount())
	if rank == 0 {
		net.FlattenParams(params)
	}
	c.Broadcast(params, 0)
	net.UnflattenParams(params)

	// The optimizer runs on the network's pool, so every stage of the
	// step uses the rank's workers.
	opt := optim.NewOnPool(net.Params(), cfg.Optim, net.Pool())

	// Resume control: [epochs done, optimizer steps done, optimizer state
	// present]. Broadcast as float32 — exact for counters below 2²⁴ —
	// followed by the optimizer accumulators themselves, so every replica
	// resumes the schedule and Adam moments bit-identically, not just the
	// weights.
	ctl := make([]float32, 3)
	if rank == 0 && resumed != nil {
		if err := resumed.Apply(opt); err != nil {
			return fmt.Errorf("train: resuming from %s: %w", cfg.ResumeFrom, err)
		}
		ctl[0] = float32(resumed.EpochsDone)
		ctl[1] = float32(resumed.StepCount)
		ctl[2] = 1
	}
	c.Broadcast(ctl, 0)
	startEpoch := 0
	if ctl[2] != 0 {
		for _, buf := range opt.StateBuffers() {
			c.Broadcast(buf, 0)
		}
		opt.SetStepCount(int(ctl[1]))
		startEpoch = int(ctl[0])
	}

	// One stream per epoch; the deferred Close covers an epoch abandoned by
	// an error or a transport panic, so no prefetch goroutine outlives it.
	var stream data.SampleStream
	defer func() {
		if stream != nil {
			stream.Close()
		}
	}()

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		var err error
		if stream, err = cfg.Data.EpochStream(epoch, rank, cfg.Ranks); err != nil {
			return fmt.Errorf("train: rank %d epoch %d: %w", rank, epoch, err)
		}
		var lossSum float64
		for step := 0; step < stepsPerEpoch; step++ {
			tl.SetStep(epoch*stepsPerEpoch + step)
			t0 := tl.Start()
			// Valid until the next Next (a Loader recycles voxels); the
			// step consumes it fully first.
			sample, err := stream.Next()
			if err == io.EOF { // StepsPerEpoch promised more: the data changed
				err = errors.New("sample stream exhausted mid-epoch")
			}
			if err != nil {
				return fmt.Errorf("train: rank %d epoch %d step %d: %w", rank, epoch, step, err)
			}
			x := sampleTensor(sample)
			tl.Record(obsv.PhaseDataWait, t0)

			t0 = tl.Start()
			if cfg.InjectDelay > 0 && rank == cfg.InjectDelayRank {
				// Straggler injection: the sleep sits inside the forward
				// phase so the report attributes the imbalance there.
				time.Sleep(cfg.InjectDelay)
			}
			net.ZeroGrads()
			pred := net.Forward(x)
			tl.Record(obsv.PhaseForward, t0)
			loss, grad := nn.MSELoss(pred, sample.Target[:])
			lossSum += loss

			if cfg.OverlapComm {
				// Pipeline: a dedicated comm goroutine aggregates each
				// layer's gradients the moment backward finishes with it.
				// Buckets are issued in deterministic reverse-layer order
				// on every rank, so the per-tag FIFO streams line up. Its
				// allreduce events land on the ring concurrent with the
				// backward event.
				bucketCh := make(chan []*nn.Param, len(net.Layers))
				commDone := make(chan struct{})
				var commPanic any
				go func() {
					defer close(commDone)
					// LIFO defers: the recover runs before commDone
					// closes, so a transport failure re-raises on the
					// rank's own goroutine below instead of crashing
					// the process from here.
					defer func() { commPanic = recover() }()
					for ps := range bucketCh {
						for _, p := range ps {
							c.AllReduceMean(p.Grad.Data())
						}
					}
				}()
				t0 = tl.Start()
				net.BackwardWithHook(grad, func(l nn.Layer) {
					if ps := l.Params(); len(ps) > 0 {
						bucketCh <- ps
					}
				})
				tl.Record(obsv.PhaseBackward, t0)
				close(bucketCh)
				<-commDone
				if commPanic != nil {
					panic(commPanic)
				}
			} else {
				t0 = tl.Start()
				net.Backward(grad)
				tl.Record(obsv.PhaseBackward, t0)
				c.AllReduceMean(net.Grads())
			}

			t0 = tl.Start()
			opt.Step()
			tl.Record(obsv.PhaseOptimizer, t0)
		}
		stream.Close()
		stream = nil

		// Global training-loss average across ranks and steps.
		globalLoss := c.AllReduceScalar(lossSum) / float64(cfg.Ranks*stepsPerEpoch)

		// Validation: each rank scores its strided shard; the collective
		// averages globally.
		t0 := tl.Start()
		valLoss := validate(c, net, valSet, rank, cfg.Ranks)
		tl.Record(obsv.PhaseEval, t0)

		if rank == 0 && cfg.CheckpointPath != "" {
			every := cfg.CheckpointEvery
			if every <= 0 {
				every = 1
			}
			if (epoch+1)%every == 0 || epoch == cfg.Epochs-1 {
				t0 := tl.Start()
				if err := SaveTrainState(cfg.CheckpointPath, net, opt, epoch+1); err != nil {
					return fmt.Errorf("train: checkpointing epoch %d: %w", epoch, err)
				}
				tl.Record(obsv.PhaseCheckpoint, t0)
			}
		}
		if rank == 0 && cfg.AbortAfterEpoch > 0 && epoch+1 >= cfg.AbortAfterEpoch {
			return fmt.Errorf("train: %w after epoch %d", ErrAborted, epoch)
		}
		if rank == 0 {
			res.Epochs[epoch] = EpochStats{
				Epoch:     epoch,
				TrainLoss: globalLoss,
				ValLoss:   valLoss,
				Duration:  time.Since(epochStart),
				Steps:     stepsPerEpoch,
				SamplesSec: float64(cfg.Ranks*stepsPerEpoch) /
					time.Since(epochStart).Seconds(),
			}
		}
		c.Barrier()
	}

	return gatherTimelines(c, tl, res)
}

// validate computes the globally averaged validation loss: each rank scores
// its strided shard one sample at a time through nn.InferBatch on a
// throwaway clone, which leaves the training network's activation caches
// alone and keeps no buffer pool on it; the collectives average globally.
func validate(c *comm.Comm, net *nn.Network, valSet []*cosmo.Sample, rank, ranks int) float64 {
	inf := net.Clone(nil)
	var sum, count float64
	for i := rank; i < len(valSet); i += ranks {
		s := valSet[i]
		loss, _ := nn.MSELoss(inf.InferBatch([]*tensor.Tensor{sampleTensor(s)})[0], s.Target[:])
		sum += loss
		count++
	}
	totalSum := c.AllReduceScalar(sum)
	totalCount := c.AllReduceScalar(count)
	if totalCount == 0 {
		return 0
	}
	return totalSum / totalCount
}
