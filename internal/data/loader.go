package data

import (
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/cosmo"
	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tfrecord"
)

// Config controls a Loader.
type Config struct {
	// Source supplies the manifest and shard bytes.
	Source Source
	// Split selects the manifest split to stream (default "train").
	Split string
	// Seed drives the per-epoch shard shuffle; give every rank the same
	// seed (train.Config.Seed) so their assignments agree.
	Seed int64
	// DecodeWorkers sizes the parallel sample-decode pool shared by all
	// of the loader's streams (default GOMAXPROCS).
	DecodeWorkers int
	// Pool recycles voxel scratch across samples; nil creates a private
	// pool. Decoded voxels are drawn from it and returned as the consumer
	// advances, so steady-state streaming allocates almost nothing.
	Pool *tensor.BufPool
	// Recorder, when non-nil, lands loader stage timings as obsv spans —
	// "read" (shard fetch), "decode" (parallel sample decode),
	// "wait_consumer" (decoded shard waiting for the trainer), "starved"
	// (trainer waiting for the loader) — so starvation is attributable to
	// a stage rather than inferred from throughput.
	Recorder *obsv.Recorder
}

// Loader streams a manifest split's samples shard by shard. One Loader
// serves any number of concurrent streams (one per in-process rank); they
// share the decode pool and voxel scratch.
type Loader struct {
	cfg      Config
	manifest *Manifest
	shards   []Shard
	minShard int // smallest per-shard sample count, the truncation unit
	decode   *parallel.Pool
	bufs     *tensor.BufPool

	spanRead, spanDecode, spanWait, spanStarve *obsv.Span
}

// NewLoader fetches and validates the manifest and prepares the decode
// pool. Close releases the pool's workers.
func NewLoader(cfg Config) (*Loader, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("data: Config.Source is required")
	}
	if cfg.Split == "" {
		cfg.Split = "train"
	}
	if cfg.DecodeWorkers < 1 {
		cfg.DecodeWorkers = runtime.GOMAXPROCS(0)
	}
	m, err := cfg.Source.Manifest()
	if err != nil {
		return nil, err
	}
	shards := m.Split(cfg.Split)
	if len(shards) == 0 {
		return nil, fmt.Errorf("data: manifest has no %q split", cfg.Split)
	}
	l := &Loader{
		cfg:      cfg,
		manifest: m,
		shards:   shards,
		minShard: shards[0].Samples,
		decode:   parallel.NewPool(cfg.DecodeWorkers),
		bufs:     cfg.Pool,
	}
	for _, s := range shards {
		if s.Samples < l.minShard {
			l.minShard = s.Samples
		}
	}
	if l.bufs == nil {
		l.bufs = tensor.NewBufPool()
	}
	if r := cfg.Recorder; r != nil {
		l.spanRead = r.Span("read")
		l.spanDecode = r.Span("decode")
		l.spanWait = r.Span("wait_consumer")
		l.spanStarve = r.Span("starved")
	}
	return l, nil
}

// Close releases the decode pool's workers. Streams opened earlier remain
// usable (decode falls back inline), but new epochs should not be opened.
func (l *Loader) Close() { l.decode.Close() }

// Manifest returns the dataset's manifest.
func (l *Loader) Manifest() *Manifest { return l.manifest }

// Dim returns the voxel edge length of every sample.
func (l *Loader) Dim() int { return l.manifest.Dim }

// Shards returns the split's shard count.
func (l *Loader) Shards() int { return len(l.shards) }

// TotalSamples returns the split's total sample count.
func (l *Loader) TotalSamples() int {
	n := 0
	for _, s := range l.shards {
		n += s.Samples
	}
	return n
}

// StepsPerEpoch returns the per-rank step count a world of the given size
// trains per epoch: shards-per-rank times the smallest shard's sample
// count, so every rank is guaranteed at least that many samples whatever
// the epoch's assignment deals it. Zero means the split cannot feed that
// many ranks (fewer shards than ranks).
func (l *Loader) StepsPerEpoch(ranks int) int {
	if ranks < 1 {
		return 0
	}
	return (len(l.shards) / ranks) * l.minShard
}

// EpochStream opens rank's sample stream for one epoch: the samples of
// its Assign shard slice, shards in assignment order, samples in file
// order within each shard — a sequence fully determined by (seed, epoch,
// rank, ranks), however the prefetch interleaves underneath.
//
// The returned sample and its voxel buffer are valid only until the
// following Next call (the loader recycles voxels through its pool);
// callers that retain samples must Clone them. Close releases the
// prefetch goroutine; it is required when abandoning a stream mid-epoch
// and harmless after exhaustion.
func (l *Loader) EpochStream(epoch, rank, ranks int) (SampleStream, error) {
	shards, err := rankAssignment(len(l.shards), rank, ranks, l.cfg.Seed, epoch)
	if err != nil {
		return nil, err
	}
	s := &stream{
		l: l,
		// One decoded shard may queue ahead of the consumer: double
		// buffering — the trainer consumes shard k while the loader
		// fetches and decodes k+1.
		ch:   make(chan decodedShard, 1),
		stop: make(chan struct{}),
	}
	go s.produce(shards)
	return s, nil
}

// Dataset is the surface a training loop consumes — implemented by
// *Loader (streamed shards) and InMemory (a sample slice), and fakeable in
// tests. Dim is the voxel edge length of every sample; StepsPerEpoch is
// the per-rank step count a world of that size trains per epoch (zero: the
// dataset cannot feed that many ranks); EpochStream opens one rank's
// deterministic per-epoch sample sequence.
type Dataset interface {
	Dim() int
	StepsPerEpoch(ranks int) int
	EpochStream(epoch, rank, ranks int) (SampleStream, error)
}

// SampleStream is one rank's per-epoch sample sequence.
type SampleStream interface {
	// Next returns the next sample, io.EOF after the last one, or the
	// first read/decode/integrity error. The sample is valid only until
	// the following Next call.
	Next() (*cosmo.Sample, error)
	// Close releases the stream's prefetch resources.
	Close() error
}

// decodedShard is one fully decoded shard traveling from the prefetch
// goroutine to the consumer.
type decodedShard struct {
	samples []*cosmo.Sample
	err     error
}

// stream implements SampleStream over a Loader.
type stream struct {
	l    *Loader
	ch   chan decodedShard
	stop chan struct{}
	once sync.Once

	cur  []*cosmo.Sample
	pos  int
	prev *cosmo.Sample // recycled into the pool on the next Next
	err  error
}

// produce fetches and decodes the stream's shards in order, double-buffered
// against the consumer through the bounded channel.
func (s *stream) produce(shardIdx []int) {
	defer close(s.ch)
	var raw []byte // shard byte buffer, reused across shards
	for _, idx := range shardIdx {
		sh := s.l.shards[idx]
		var err error
		raw, err = s.l.fetchShard(sh, raw)
		var samples []*cosmo.Sample
		if err == nil {
			samples, err = s.l.decodeShard(raw)
		}
		if err != nil {
			err = fmt.Errorf("data: shard %s: %w", sh.File, err)
		}
		waitStart := time.Now()
		select {
		case s.ch <- decodedShard{samples: samples, err: err}:
			if s.l.spanWait != nil {
				s.l.spanWait.Observe(time.Since(waitStart))
			}
		case <-s.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// fetchShard reads one shard's bytes into buf and verifies length and
// checksum against the manifest.
func (l *Loader) fetchShard(sh Shard, buf []byte) ([]byte, error) {
	start := time.Now()
	rc, err := l.cfg.Source.Open(sh.File)
	if err != nil {
		return buf, err
	}
	defer rc.Close()
	// One byte past the manifest's length is enough to tell a longer copy.
	buf, err = readAtMost(rc, buf[:0], sh.Bytes+1)
	if err != nil {
		return buf, fmt.Errorf("reading %d bytes: %w", sh.Bytes, err)
	}
	if n := int64(len(buf)); n < sh.Bytes {
		return buf, fmt.Errorf("reading %d bytes: %w after %d", sh.Bytes, io.ErrUnexpectedEOF, n)
	} else if n > sh.Bytes {
		// The manifest said the shard ends here; trailing bytes mean the
		// copy does not match the manifest that vouches for it.
		return buf, fmt.Errorf("longer than the %d bytes the manifest records", sh.Bytes)
	}
	// The checksum is how a torn local copy or a corrupted remote transfer
	// is caught before its samples poison a training run.
	if crc := crc32.Checksum(buf, castagnoli); crc != sh.CRC32C {
		return buf, fmt.Errorf("checksum %08x does not match manifest %08x (torn or corrupted shard)", crc, sh.CRC32C)
	}
	if l.spanRead != nil {
		l.spanRead.Observe(time.Since(start))
	}
	return buf, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readAtMost appends r's bytes to buf until EOF or until buf holds limit
// bytes, and returns the grown slice. Capacity follows the bytes that
// actually arrive, doubling from 64 KiB and never past limit: a manifest
// may come from a remote shard server, so its byte count bounds the buffer
// but is not trusted to size it. A buffer reused across same-sized shards
// never grows again.
func readAtMost(r io.Reader, buf []byte, limit int64) ([]byte, error) {
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			grow := int(min(int64(max(len(buf), 64<<10)), limit-int64(len(buf))))
			grown := make([]byte, len(buf), len(buf)+grow)
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// decodeShard splits the shard into records and decodes them in parallel,
// preserving file order. Voxel scratch comes from the loader's pool.
func (l *Loader) decodeShard(raw []byte) ([]*cosmo.Sample, error) {
	start := time.Now()
	records, err := tfrecord.SplitRecords(raw)
	if err != nil {
		return nil, err
	}
	samples := make([]*cosmo.Sample, len(records))
	errs := make([]error, len(records))
	dim := l.manifest.Dim // Validate bounds it by tfrecord.MaxSampleDim
	voxLen := dim * dim * dim
	l.decode.ForEach(len(records), 1, func(i int) {
		if err := records[i].Verify(); err != nil {
			errs[i] = err
			return
		}
		s, err := tfrecord.DecodeSampleInto(records[i].Payload, l.bufs.Get(voxLen))
		if err != nil {
			errs[i] = err
			return
		}
		if s.Dim != dim {
			errs[i] = fmt.Errorf("sample dim %d, manifest says %d", s.Dim, dim)
			return
		}
		samples[i] = s
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if l.spanDecode != nil {
		l.spanDecode.Observe(time.Since(start))
	}
	return samples, nil
}

// Next implements SampleStream.
func (s *stream) Next() (*cosmo.Sample, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.prev != nil {
		s.l.bufs.Put(s.prev.Voxels)
		s.prev = nil
	}
	for s.pos >= len(s.cur) {
		starveStart := time.Now()
		d, ok := <-s.ch
		if s.l.spanStarve != nil {
			s.l.spanStarve.Observe(time.Since(starveStart))
		}
		if !ok {
			s.err = io.EOF
			return nil, s.err
		}
		if d.err != nil {
			s.err = d.err
			return nil, s.err
		}
		s.cur, s.pos = d.samples, 0
	}
	out := s.cur[s.pos]
	s.cur[s.pos] = nil
	s.pos++
	s.prev = out
	return out, nil
}

// Close implements SampleStream.
func (s *stream) Close() error {
	s.once.Do(func() { close(s.stop) })
	return nil
}
