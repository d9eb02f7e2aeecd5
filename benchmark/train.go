package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

// trainEnv is a training workload after set-up: the samples (in memory, or
// written as a sharded TFRecord set with a manifest), and for the TCP
// workload a joined world and a loader per rank.
type trainEnv struct {
	w      workload
	cfg    train.Config
	set    []*cosmo.Sample // in-memory training set; nil when streamed
	worlds []*dist.World   // one per rank; nil for the in-process workload
	loads  []*data.Loader  // one per rank, as separate processes would hold
	dir    string          // dataset directory, removed by close
}

// trainSamples makes the workload's training set from the seed: targets
// drawn from the seed, voxels a deterministic function of target and index.
func trainSamples(w workload, seed int64) []*cosmo.Sample {
	rng := rand.New(rand.NewSource(seed))
	set := make([]*cosmo.Sample, w.trainSamples())
	for i := range set {
		target := [3]float32{rng.Float32(), rng.Float32(), rng.Float32()}
		set[i] = cosmo.SyntheticSample(w.Dim, target, seed*1009+int64(i))
	}
	return set
}

// setupTrain does what a user does before the first step: generate the
// samples, and for the streamed workload write the shards and manifest,
// join the ranks over loopback TCP and open each rank's loader.
func setupTrain(w workload, seed int64, scratch string) (*trainEnv, error) {
	e := &trainEnv{w: w, cfg: train.Config{
		Ranks:          w.Ranks,
		Epochs:         1 + w.Epochs,
		Topology:       nn.TopologyConfig{InputDim: w.Dim, BaseChannels: w.Base, Seed: seed},
		WorkersPerRank: w.Workers,
		Seed:           seed,
	}}
	set := trainSamples(w, seed)
	if !w.TCP {
		e.set = set
		return e, nil
	}
	dir, err := os.MkdirTemp(scratch, "dataset-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	if err := e.joinAndLoad(set, seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *trainEnv) joinAndLoad(set []*cosmo.Sample, seed int64) error {
	if _, err := tfrecord.WriteDataset(e.dir, "train", set, e.w.PerShard); err != nil {
		return fmt.Errorf("writing shards: %w", err)
	}
	m, err := data.Scan(e.dir, "train")
	if err != nil {
		return fmt.Errorf("scanning shards: %w", err)
	}
	if err := data.WriteManifest(e.dir, m); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.worlds = make([]*dist.World, e.w.Ranks)
	errs := make([]error, e.w.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < e.w.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := dist.Config{Size: e.w.Ranks, Rank: r, Rendezvous: l.Addr().String()}
			if r == 0 {
				cfg.RendezvousListener = l
			}
			e.worlds[r], errs[r] = dist.Join(cfg)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("joining world: %w", err)
	}
	for r := 0; r < e.w.Ranks; r++ {
		ld, err := data.NewLoader(data.Config{Source: &data.DirSource{Dir: e.dir}, Seed: seed, DecodeWorkers: e.w.Workers})
		if err != nil {
			return fmt.Errorf("opening loader: %w", err)
		}
		e.loads = append(e.loads, ld)
	}
	return nil
}

func (e *trainEnv) close() {
	for _, ld := range e.loads {
		ld.Close()
	}
	var wg sync.WaitGroup
	for _, w := range e.worlds {
		if w != nil {
			wg.Add(1)
			go func(w *dist.World) { defer wg.Done(); w.Close() }(w)
		}
	}
	wg.Wait()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// roundResult is one train.Run (or one RunDistributed per rank): a warm-up
// epoch followed by the timed epochs.
type roundResult struct {
	epochs    []train.EpochStats // rank 0's, warm-up included
	checksums []uint64           // final parameter checksum per rank
}

// round trains from scratch through the public entry point, tracing off.
// Every round of a run has the same inputs, so every round must end on the
// same bits.
func (e *trainEnv) round() (*roundResult, error) {
	if !e.w.TCP {
		res, err := train.Run(e.cfg, e.set, nil)
		if err != nil {
			return nil, err
		}
		return &roundResult{epochs: res.Epochs, checksums: []uint64{paramChecksum(res.Net)}}, nil
	}
	results := make([]*train.Result, e.w.Ranks)
	errs := make([]error, e.w.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < e.w.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := e.cfg
			cfg.Data = e.loads[r]
			results[r], errs[r] = train.RunDistributed(cfg, e.worlds[r].Comm(), nil, nil)
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rr := &roundResult{epochs: results[0].Epochs}
	for _, res := range results {
		rr.checksums = append(rr.checksums, paramChecksum(res.Net))
	}
	return rr, nil
}

func paramChecksum(n *nn.Network) uint64 {
	params := make([]float32, n.ParamCount())
	n.FlattenParams(params)
	h := fnv.New64a()
	var b [4]byte
	for _, p := range params {
		u := math.Float32bits(p)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// trainTimed is what the untraced rounds measured.
type trainTimed struct {
	stepMs       []float64 // per timed epoch: Duration ÷ steps
	samplesPerS  []float64 // per timed epoch: global samples ÷ Duration
	samples      int       // global samples over the timed epochs
	elapsed      time.Duration
	finalLoss    float64
	problems     []string
	roundsFailed int
	rounds       int
	stepsAll     int // steps per rank over all epochs, warm-up included
}

// runRounds repeats rounds until about `seconds` have passed (at least one
// round; another is started only while half of it still fits), collecting
// the timed epochs and checking each round's outputs.
func (e *trainEnv) runRounds(seconds float64) trainTimed {
	var t trainTimed
	var firstBits uint64
	start := time.Now()
	for {
		roundStart := time.Now()
		rr, err := e.round()
		t.rounds++
		if err != nil {
			t.roundsFailed++
			t.problems = append(t.problems, fmt.Sprintf("round %d: %v", t.rounds, err))
			break
		}
		t.problems = append(t.problems, checkRound(rr)...)
		final := rr.epochs[len(rr.epochs)-1].TrainLoss
		if t.rounds == 1 {
			firstBits, t.finalLoss = math.Float64bits(final), final
		} else if math.Float64bits(final) != firstBits {
			t.problems = append(t.problems, fmt.Sprintf("round %d final loss %x differs from round 1 %x on the same inputs", t.rounds, math.Float64bits(final), firstBits))
		}
		for _, ep := range rr.epochs {
			t.stepsAll += ep.Steps
		}
		for _, ep := range rr.epochs[1:] {
			t.stepMs = append(t.stepMs, ep.Duration.Seconds()*1e3/float64(ep.Steps))
			t.samplesPerS = append(t.samplesPerS, float64(ep.Steps*e.w.Ranks)/ep.Duration.Seconds())
			t.samples += ep.Steps * e.w.Ranks
			t.elapsed += ep.Duration
		}
		roundDur := time.Since(roundStart).Seconds()
		if time.Since(start).Seconds()+roundDur/2 > seconds {
			break
		}
	}
	return t
}

// checkRound applies the training correctness gates to one round.
func checkRound(rr *roundResult) []string {
	var problems []string
	for _, ep := range rr.epochs {
		if math.IsNaN(ep.TrainLoss) || math.IsInf(ep.TrainLoss, 0) {
			problems = append(problems, fmt.Sprintf("epoch %d loss is %v", ep.Epoch, ep.TrainLoss))
		}
	}
	// Against epoch 0, not the first timed epoch: with a dozen steps per
	// epoch most of the learning is in epoch 0, and on 1 seed in 48 the
	// later epochs' losses are level to within their noise.
	first, last := rr.epochs[0].TrainLoss, rr.epochs[len(rr.epochs)-1].TrainLoss
	if !(last < first) {
		problems = append(problems, fmt.Sprintf("final loss %g is not below the first epoch's %g", last, first))
	}
	for r, c := range rr.checksums {
		if c != rr.checksums[0] {
			problems = append(problems, fmt.Sprintf("rank %d parameter checksum %x differs from rank 0's %x", r, c, rr.checksums[0]))
		}
	}
	return problems
}

// shadowStats is what one rank's shadow loop counted outside the spans.
type shadowStats struct {
	steps       int
	bytes, msgs int64 // rank 0's comm traffic over the timed steps
	convFLOPs   int64 // forward FLOPs of the conv layers for one sample
}

// shadowTrain re-composes Algorithm 2 from the layers' public calls — the
// same sequence train's rank loop runs, on the same topology, world and
// loader — with a span around each call. Rank 0 records; the other ranks
// run the same code with a nil recorder. Steps of the first epoch are
// warm-up and get negative op ids.
func (e *trainEnv) shadowTrain(rec *spanRec, epochs int) (shadowStats, error) {
	var comms []*comm.Comm
	var sent func() (int64, int64) // rank 0's cumulative bytes and messages
	if e.w.TCP {
		for _, w := range e.worlds {
			comms = append(comms, w.Comm())
		}
		sent = func() (int64, int64) { return e.worlds[0].BytesSent(), e.worlds[0].MessagesSent() }
	} else {
		world, err := comm.NewWorld(e.w.Ranks)
		if err != nil {
			return shadowStats{}, err
		}
		comms = world.Comms()
		sent = func() (int64, int64) { return world.BytesSent(), world.MessagesSent() }
	}

	stats := make([]shadowStats, e.w.Ranks)
	errs := make([]error, e.w.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < e.w.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var rr *spanRec
			if r == 0 {
				rr = rec
			}
			stats[r], errs[r] = e.shadowRank(rr, r, comms[r], epochs, sent)
		}(r)
	}
	wg.Wait()
	return stats[0], errors.Join(errs...)
}

func (e *trainEnv) shadowRank(rec *spanRec, rank int, c *comm.Comm, epochs int, sent func() (int64, int64)) (st shadowStats, err error) {
	defer func() {
		// A failing transport panics mid-collective; report it as an error.
		if p := recover(); p != nil {
			te, ok := p.(*comm.TransportError)
			if !ok {
				panic(p)
			}
			err = te
		}
	}()
	pool := parallel.NewPool(e.w.Workers)
	defer pool.Close()
	topo := e.cfg.Topology
	topo.Seed += int64(rank)
	topo.Pool = pool
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		return st, err
	}
	params := make([]float32, net.ParamCount())
	if rank == 0 {
		net.FlattenParams(params)
	}
	c.Broadcast(params, 0)
	net.UnflattenParams(params)

	stepsPerEpoch := len(e.set) / e.w.Ranks
	if e.w.TCP {
		stepsPerEpoch = e.loads[rank].StepsPerEpoch(e.w.Ranks)
	}
	ocfg := e.cfg.Optim
	ocfg.Schedule = optim.DefaultSchedule(stepsPerEpoch * epochs)
	opt := optim.New(net.Params(), ocfg)
	gradBuf := make([]float32, net.GradSize())

	for i, l := range net.Layers {
		if _, ok := l.(*nn.Conv3D); ok {
			st.convFLOPs += l.FwdFLOPs(net.ShapeAtLayer(i))
		}
	}
	fwdNames, bwdNames := layerSpanNames(net)

	var bytes0, msgs0 int64
	for epoch := 0; epoch < epochs; epoch++ {
		var stream data.SampleStream
		if e.w.TCP {
			if stream, err = e.loads[rank].EpochStream(epoch, rank, e.w.Ranks); err != nil {
				return st, err
			}
		}
		if epoch == 1 {
			bytes0, msgs0 = sent()
		}
		for step := 0; step < stepsPerEpoch; step++ {
			op := (epoch-1)*stepsPerEpoch + step // epoch 0 is warm-up: negative ops
			stepSpan := rec.begin("train.step", op)

			id := rec.begin("data.next", op)
			var sample *cosmo.Sample
			if stream != nil {
				sample, err = stream.Next()
				if err != nil {
					if err == io.EOF {
						err = errors.New("sample stream ended mid-epoch")
					}
					stream.Close()
					return st, err
				}
			} else {
				sample = e.set[(step*e.w.Ranks+rank+epoch)%len(e.set)]
			}
			x := tensor.FromData(sample.Voxels, sample.NumChannels(), sample.Dim, sample.Dim, sample.Dim)
			rec.end(id)

			id = rec.begin("nn.forward", op)
			net.ZeroGrads()
			h := x
			for i, l := range net.Layers {
				lid := rec.begin(fwdNames[i], op)
				h = l.Forward(h)
				rec.end(lid)
			}
			rec.end(id)

			id = rec.begin("nn.loss", op)
			loss, grad := nn.MSELoss(h, sample.Target[:])
			rec.end(id)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return st, fmt.Errorf("shadow step %d loss is %v", op, loss)
			}

			id = rec.begin("nn.backward", op)
			g := grad
			for i := len(net.Layers) - 1; i >= 0; i-- {
				lid := rec.begin(bwdNames[i], op)
				g = net.Layers[i].Backward(g)
				rec.end(lid)
			}
			rec.end(id)

			id = rec.begin("nn.flatten", op)
			net.FlattenGrads(gradBuf)
			rec.end(id)
			id = rec.begin("comm.allreduce", op)
			c.AllReduceMean(gradBuf)
			rec.end(id)
			id = rec.begin("nn.flatten", op)
			net.UnflattenGrads(gradBuf)
			rec.end(id)

			id = rec.begin("optim.step", op)
			opt.Step()
			rec.end(id)
			id = rec.begin("nn.invalidate", op)
			net.InvalidateWeights()
			rec.end(id)

			rec.end(stepSpan)
			if epoch > 0 {
				st.steps++
			}
		}
		if stream != nil {
			stream.Close()
		}
		c.Barrier()
	}
	if rank == 0 {
		b, m := sent()
		st.bytes, st.msgs = b-bytes0, m-msgs0
	}
	return st, nil
}

// layerSpanNames names each layer's forward and backward span: conv layers
// fall in the nn.conv_fwd / nn.conv_bwd families, the rest in nn.other_*.
func layerSpanNames(net *nn.Network) (fwd, bwd []string) {
	for _, l := range net.Layers {
		kind := "other"
		if _, ok := l.(*nn.Conv3D); ok {
			kind = "conv"
		}
		fwd = append(fwd, "nn."+kind+"_fwd/"+l.Name())
		bwd = append(bwd, "nn."+kind+"_bwd/"+l.Name())
	}
	return fwd, bwd
}

// runTrain runs one training workload: set-up (several times, for
// setup_s), then either the untraced timed rounds or the traced pair
// (a short untraced round for the base step time, then the shadow).
func runTrain(w workload, o runOpts) (*report, error) {
	rep := newReport(w, o)
	env, setupS, err := repeatSetup(func() (*trainEnv, error) { return setupTrain(w, o.Seed, o.OutDir) }, (*trainEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()

	if !o.Traced {
		t := env.runRounds(o.Seconds)
		rep.addTrainTimed(t, setupS)
		return rep, nil
	}

	// Traced run, part 1: the base the shares are taken of. One round only,
	// shortened to fit the traced budget by running fewer timed epochs.
	base := *env
	base.cfg.Epochs = 3 // warm-up + two timed
	before := readMem()
	t := base.runRounds(o.Seconds * tracedPart)
	mem := readMem().since(before)

	// Part 2: the shadow, on the same set-up.
	t0 := time.Now()
	rec := newSpanRec(t0)
	shadowEpochs := 1 + shadowTimedEpochs(t, o.Seconds*tracedPart)
	st, err := env.shadowTrain(rec, shadowEpochs)
	if err != nil {
		return nil, fmt.Errorf("shadow step: %w", err)
	}
	if err := writeSpans(filepath.Join(o.OutDir, "trace-"+w.Name+".json"), rec.spans); err != nil {
		return nil, err
	}
	rep.addTrainTraced(t, st, rec.spans, mem)
	return rep, nil
}

// shadowTimedEpochs sizes the shadow so that it takes about the given
// budget, from the epoch time the untraced base just measured.
func shadowTimedEpochs(t trainTimed, budget float64) int {
	if len(t.stepMs) == 0 || t.elapsed <= 0 {
		return 1
	}
	perEpoch := t.elapsed.Seconds() / float64(len(t.stepMs))
	n := int(budget/perEpoch) - 1 // one epoch of the budget is the warm-up
	if n < 1 {
		n = 1
	}
	return n
}

// addTrainTimed turns the untraced rounds into the end-to-end metrics. An
// operation is one sample trained.
func (r *report) addTrainTimed(t trainTimed, setupS []float64) {
	r.Problems = append(r.Problems, t.problems...)
	r.Attempted = t.samples
	if t.roundsFailed > 0 {
		// A round that errored out trained nothing that counts.
		r.Attempted += t.roundsFailed
		r.Failed = t.roundsFailed
	}
	if len(t.stepMs) == 0 {
		return
	}
	r.set("throughput_per_s", float64(t.samples)/t.elapsed.Seconds(), summarize(t.samplesPerS),
		"global samples ÷ Σ EpochStats.Duration, timed epochs")
	steps := summarize(t.stepMs)
	r.set("latency_p50_ms", steps.Median, steps, "per-epoch step time")
	p := gatedTail(len(t.stepMs))
	r.set("latency_tail_ms", quantile(sortedCopy(t.stepMs), p/100), steps, fmt.Sprintf("p%g of per-epoch step time", p))
	r.set("setup_s", median(setupS), summarize(setupS), "")
	r.set("peak_rss_mb", peakRSSMB(), summary{}, "VmHWM")
	r.extra("rounds", "count", float64(t.rounds), "train runs from scratch on the same inputs; all ended on the same bits")
	r.extra("final_loss", "", t.finalLoss, fmt.Sprintf("final_loss_bits %016x", math.Float64bits(t.finalLoss)))
}

// addTrainTraced turns the shadow's spans into the per-layer metrics, each
// with its share of the untraced step.
func (r *report) addTrainTraced(t trainTimed, st shadowStats, spans []span, mem memStats) {
	r.Problems = append(r.Problems, t.problems...)
	r.Attempted, r.Failed = st.steps, 0
	if len(t.stepMs) == 0 || st.steps == 0 {
		r.Problems = append(r.Problems, "traced run measured no steps")
		return
	}
	step := median(t.stepMs)
	r.set("train.step_ms", step, summarize(t.stepMs), "untraced train step: the base of every share below")

	phase := func(metricName, fam string) float64 {
		xs := perOpMs(spans, fam, false)
		s := summarize(xs)
		r.set(metricName, s.Median, s, "").Share = s.Median / step
		return s.Median
	}
	phase("data.next_ms", "data.next")
	phase("nn.forward_ms", "nn.forward")
	phase("nn.backward_ms", "nn.backward")
	convFwd := phase("nn.conv_fwd_ms", "nn.conv_fwd")
	phase("nn.conv_bwd_ms", "nn.conv_bwd")
	if convFwd > 0 {
		r.set("nn.conv_fwd_gflops", float64(st.convFLOPs)/(convFwd*1e-3)/1e9, summary{}, "computed: conv FwdFLOPs ÷ nn.conv_fwd_ms")
	}
	phase("nn.flatten_ms", "nn.flatten")
	phase("comm.allreduce_ms", "comm.allreduce")
	r.set("comm.bytes_per_step", float64(st.bytes)/float64(st.steps), summary{}, "rank 0, exact count")
	r.set("comm.msgs_per_step", float64(st.msgs)/float64(st.steps), summary{}, "rank 0, exact count")
	phase("optim.step_ms", "optim.step")
	phase("nn.invalidate_ms", "nn.invalidate")

	whole := perOpMs(spans, "train.step", false)
	self := perOpMs(spans, "train.step", true)
	attributed := make([]float64, len(whole))
	for i := range whole {
		attributed[i] = whole[i] - self[i]
	}
	un := step - median(attributed)
	r.set("train.unattributed_ms", un, summary{}, "untraced step − Σ shadow phases: what train's rank loop adds").Share = un / step
	r.set("trace.overhead_share", (median(whole)-step)/step, summary{}, "shadow step with spans vs untraced step")

	ops := float64(t.stepsAll)
	r.set("go.alloc_bytes_per_op", float64(mem.alloc)/ops, summary{}, "per step, untraced rounds incl. network build")
	r.set("go.gc_pause_ms", float64(mem.pauseNs)/1e6, summary{}, "total over the untraced rounds")
	r.extra("shadow.steps", "count", float64(st.steps), "timed shadow steps on rank 0")
}
