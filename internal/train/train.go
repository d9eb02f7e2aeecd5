// Package train implements CosmoFlow's fully synchronous data-parallel
// training loop (Algorithm 2): every rank is a worker with mini-batch size
// one, gradients are averaged with a collective allreduce after every step,
// and all ranks apply identical optimizer updates, so the replicas remain
// bit-wise synchronized without a parameter server.
package train

import (
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
	// Algorithm selects the gradient allreduce; Helpers the helper-team
	// count (§III-D).
	Algorithm comm.Algorithm
	Helpers   int
	// WorkersPerRank sizes each rank's intra-node compute pool.
	WorkersPerRank int
	// Seed controls data sharding order.
	Seed int64
	// Data, when non-nil, streams the training set from a sharded TFRecord
	// dataset (a *data.Loader) instead of the in-memory trainSet argument,
	// which must then be empty. Each rank streams its rank-disjoint
	// per-epoch shard assignment; step counts come from the manifest
	// (Dataset.StepsPerEpoch), and the sample sequence is a pure function
	// of (Seed, epoch, rank, Ranks), so streamed runs keep the bit-identity
	// and resume guarantees of in-memory ones. Give the Loader this same
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
	// resume tests and dist-smoke. Only meaningful under RunDistributed,
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
	// timeline smoke and the attribution tests. Sleeping never touches the
	// math, so the trained bits stay identical to an undelayed run.
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
	world, err := comm.NewWorld(cfg.Ranks, comm.WithAlgorithm(cfg.Algorithm), comm.WithHelpers(cfg.Helpers))
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
			errs[rank] = runRank(rc, rank, world.Comm(rank), nets[rank], trainSet, valSet,
				stepsPerEpoch, res)
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

// prepareRun validates the configuration and resolves the derived
// schedule; shared by the in-process and distributed entry points so both
// worlds train over identical hyperparameters (a bit-identity
// precondition).
func prepareRun(cfg Config, trainSet []*cosmo.Sample) (Config, int, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	var stepsPerEpoch int
	if cfg.Data != nil {
		if len(trainSet) > 0 {
			return cfg, 0, fmt.Errorf("train: Config.Data and an in-memory training set are mutually exclusive")
		}
		if dim := cfg.Data.Dim(); dim != cfg.Topology.InputDim {
			return cfg, 0, fmt.Errorf("train: dataset samples are dim %d but Topology.InputDim is %d", dim, cfg.Topology.InputDim)
		}
		stepsPerEpoch = cfg.Data.StepsPerEpoch(cfg.Ranks)
		if stepsPerEpoch < 1 {
			return cfg, 0, fmt.Errorf("train: dataset cannot feed %d ranks; SSGD requires at least one shard per rank", cfg.Ranks)
		}
	} else {
		if len(trainSet) < cfg.Ranks {
			return cfg, 0, fmt.Errorf("train: %d training samples for %d ranks; SSGD requires at least one sample per rank (§VII-B)", len(trainSet), cfg.Ranks)
		}
		stepsPerEpoch = len(trainSet) / cfg.Ranks
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
// collectives themselves. cfg.Timeline is this rank's ring (nil: untraced).
func runRank(cfg Config, rank int, c *comm.Comm, net *nn.Network,
	trainSet, valSet []*cosmo.Sample, stepsPerEpoch int, res *Result) error {

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

	opt := optim.New(net.Params(), cfg.Optim)

	// Resume control: [epochs done, optimizer steps done, optimizer state
	// present]. Broadcast as float32 — exact for counters below 2²⁴ —
	// followed by the optimizer accumulators themselves, so every replica
	// resumes the schedule and momentum bit-identically, not just the
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

	gradBuf := make([]float32, net.GradSize())
	src := newRankData(cfg, rank, trainSet)
	defer src.close()

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		if err := src.startEpoch(epoch); err != nil {
			return fmt.Errorf("train: rank %d epoch %d: %w", rank, epoch, err)
		}
		var lossSum float64
		for step := 0; step < stepsPerEpoch; step++ {
			tl.SetStep(epoch*stepsPerEpoch + step)
			t0 := tl.Start()
			sample, err := src.next()
			if err != nil {
				return fmt.Errorf("train: rank %d epoch %d step %d: %w", rank, epoch, step, err)
			}
			x := tensor.FromData(sample.Voxels, sample.NumChannels(), sample.Dim, sample.Dim, sample.Dim)
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
				net.FlattenGrads(gradBuf)
				c.AllReduceMean(gradBuf)
				net.UnflattenGrads(gradBuf)
			}

			t0 = tl.Start()
			opt.Step()
			net.InvalidateWeights()
			tl.Record(obsv.PhaseOptimizer, t0)
		}

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
// its strided shard one sample at a time through the inference path, which
// leaves mode-dependent layers and activation caches alone and, unlike the
// batched path, keeps no buffer pool on the training replica; the
// collectives average globally.
func validate(c *comm.Comm, net *nn.Network, valSet []*cosmo.Sample, rank, ranks int) float64 {
	p := NewPredictor(net)
	var sum, count float64
	for i := rank; i < len(valSet); i += ranks {
		s := valSet[i]
		pred := p.Predict(s)
		loss, _ := nn.MSELoss(tensor.FromData(pred[:], len(pred)), s.Target[:])
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

// rankData feeds one rank its per-epoch training samples. Two
// implementations: memData deals from the in-memory training set,
// streamData pulls rank-disjoint shards from Config.Data. The returned
// sample may be invalidated by the following next call (streaming sources
// recycle voxel buffers), which is safe here because each training step
// fully consumes its sample before requesting another.
type rankData interface {
	startEpoch(epoch int) error
	next() (*cosmo.Sample, error)
	close()
}

// newRankData picks the source runRank trains from.
func newRankData(cfg Config, rank int, trainSet []*cosmo.Sample) rankData {
	if cfg.Data != nil {
		return &streamData{src: cfg.Data, rank: rank, ranks: cfg.Ranks}
	}
	return &memData{it: shardIterator{samples: trainSet, ranks: cfg.Ranks, rank: rank, seed: cfg.Seed}}
}

// memData adapts shardIterator to the rankData surface.
type memData struct{ it shardIterator }

func (d *memData) startEpoch(epoch int) error   { d.it.startEpoch(epoch); return nil }
func (d *memData) next() (*cosmo.Sample, error) { return d.it.next(), nil }
func (d *memData) close()                       {}

// streamData opens one data.SampleStream per epoch. The previous epoch's
// stream is closed on the next startEpoch (or at close), releasing its
// prefetch goroutine even when the epoch's step count truncated the stream
// before exhaustion.
type streamData struct {
	src         data.Dataset
	rank, ranks int
	cur         data.SampleStream
}

func (d *streamData) startEpoch(epoch int) error {
	d.close()
	s, err := d.src.EpochStream(epoch, d.rank, d.ranks)
	if err != nil {
		return err
	}
	d.cur = s
	return nil
}

func (d *streamData) next() (*cosmo.Sample, error) {
	s, err := d.cur.Next()
	if err == io.EOF {
		// StepsPerEpoch truncation guarantees the stream outlasts the
		// epoch; running dry mid-epoch means the dataset changed out from
		// under the manifest.
		return nil, fmt.Errorf("sample stream exhausted mid-epoch")
	}
	return s, err
}

func (d *streamData) close() {
	if d.cur != nil {
		d.cur.Close()
		d.cur = nil
	}
}

// shardIterator deals samples to ranks: a deterministic epoch-dependent
// permutation of the training set, strided by rank, mirroring the random
// TFRecord assignment of §IV-C.
type shardIterator struct {
	samples []*cosmo.Sample
	ranks   int
	rank    int
	seed    int64
	order   []int
	pos     int
}

func (s *shardIterator) startEpoch(epoch int) {
	rng := newShardRNG(s.seed, epoch)
	s.order = rng.Perm(len(s.samples))
	s.pos = s.rank
}

func (s *shardIterator) next() *cosmo.Sample {
	if s.pos >= len(s.order) {
		// Wrap: epochs truncate to equal per-rank step counts, so this is
		// only reached if callers over-iterate.
		s.pos = s.rank
	}
	sample := s.samples[s.order[s.pos]]
	s.pos += s.ranks
	return sample
}
