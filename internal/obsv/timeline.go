package obsv

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Phase labels one slice of a training step's wall time. The train loop
// emits the step-level phases; the comm collectives emit the comm phases
// (so an overlapped allreduce shows up concurrent with backward).
type Phase uint8

const (
	PhaseDataWait Phase = iota
	PhaseForward
	PhaseBackward
	PhaseAllReduce
	PhaseOptimizer
	PhaseCheckpoint
	PhaseEval
	PhaseBroadcast
	PhaseBarrier
	PhaseReduceScatter
	PhaseAllGather
	// NumPhases bounds the enum; new phases must be appended above it so
	// recorded traces stay decodable.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"data_wait", "forward", "backward", "allreduce", "optimizer",
	"checkpoint", "eval", "broadcast", "barrier", "reduce_scatter",
	"allgather",
}

// String names the phase as it appears in traces, reports, and metrics.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// ParsePhase maps a phase name back to its enum value (used when loading
// an exported Chrome trace).
func ParsePhase(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// IsComm reports whether the phase is emitted by the comm layer (its own
// track in the Chrome trace, the "comm" side of the overlap fraction).
func (p Phase) IsComm() bool {
	switch p {
	case PhaseAllReduce, PhaseBroadcast, PhaseBarrier, PhaseReduceScatter, PhaseAllGather:
		return true
	}
	return false
}

// TimelineEvent is one completed phase occurrence. StartNs is relative to
// the owning timeline's base instant (monotonic clock), so events stay
// comparable within a rank; RankTimeline.BaseUnixNs aligns ranks to wall
// clock for cross-rank views.
type TimelineEvent struct {
	Phase   Phase `json:"phase"`
	Step    int32 `json:"step"`
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
}

// DefaultTimelineCap is the per-rank event ring capacity when the caller
// does not choose one: at ~10 events per step it retains the most recent
// ~1.6k steps in ~400 KiB.
const DefaultTimelineCap = 16384

// Timeline is a fixed-capacity ring of phase events for one rank,
// following the ForwardTrace discipline: opt-in, and when no timeline is
// attached the instrumented paths pay a nil check, not clock reads.
// Record is lock-free and safe from concurrent goroutines (the overlap-comm
// goroutine records allreduce events while the main goroutine records
// backward); when the ring wraps, the oldest events are overwritten and
// counted in Dropped rather than silently lost.
//
// Every recorded event is also observed into its phase's Span in Phases(),
// so per-phase counts and totals keep counting after the ring wraps and a
// scrape can read them live while the ring is being written.
type Timeline struct {
	rank   int
	base   time.Time
	wall   int64 // unix ns matching base
	step   atomic.Int64
	next   atomic.Int64
	buf    []TimelineEvent
	phases *Recorder
	spans  [NumPhases]*Span
}

// NewTimeline builds a timeline for the given rank retaining the most
// recent capacity events (<=0 selects DefaultTimelineCap).
func NewTimeline(rank, capacity int) *Timeline {
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	now := time.Now()
	t := &Timeline{
		rank:   rank,
		base:   now,
		wall:   now.UnixNano(),
		buf:    make([]TimelineEvent, capacity),
		phases: NewRecorder(),
	}
	for p := Phase(0); p < NumPhases; p++ {
		t.spans[p] = t.phases.Span(p.String())
	}
	return t
}

// Rank returns the rank this timeline records.
func (t *Timeline) Rank() int { return t.rank }

// Cap returns the ring capacity in events.
func (t *Timeline) Cap() int { return len(t.buf) }

// Phases returns the per-phase spans every Record also observes into, one
// per Phase in enum order and named by Phase.String.
func (t *Timeline) Phases() *Recorder { return t.phases }

// Start, SetStep and Record are safe on a nil *Timeline, where they do
// nothing and read no clock: an instrumented loop calls them unguarded and
// an untraced run pays a nil check per call.

// Start returns the start instant of a phase to pass to Record: the current
// time, or the zero time when t is nil.
func (t *Timeline) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// SetStep sets the step tag stamped on subsequently recorded events.
func (t *Timeline) SetStep(step int) {
	if t != nil {
		t.step.Store(int64(step))
	}
}

// Record appends one event for phase p spanning [start, now) and observes
// its duration into p's span. It is the single hot-path entry point: one
// time.Now() call, one atomic index claim, the span's atomic adds.
func (t *Timeline) Record(p Phase, start time.Time) {
	if t == nil {
		return
	}
	dur := time.Since(start)
	i := t.next.Add(1) - 1
	t.buf[int(i)%len(t.buf)] = TimelineEvent{
		Phase:   p,
		Step:    int32(t.step.Load()),
		StartNs: start.Sub(t.base).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	}
	t.spans[p].Observe(dur)
}

// RankTimeline is one rank's recorded events, detached from the ring:
// what the end-of-run gather ships to rank 0 and what the exporters
// consume. Events are in record order (chronological by completion).
type RankTimeline struct {
	Rank       int             `json:"rank"`
	BaseUnixNs int64           `json:"base_unix_ns"`
	Dropped    int64           `json:"dropped"`
	Events     []TimelineEvent `json:"events"`
}

// Snapshot copies the retained events out of the ring, oldest first.
// Concurrent recorders should be quiesced first for a consistent cut
// (the train loop snapshots after its final barrier).
func (t *Timeline) Snapshot() RankTimeline {
	n := t.next.Load()
	rt := RankTimeline{Rank: t.rank, BaseUnixNs: t.wall}
	capN := int64(len(t.buf))
	if n <= capN {
		rt.Events = append([]TimelineEvent(nil), t.buf[:n]...)
		return rt
	}
	rt.Dropped = n - capN
	rt.Events = make([]TimelineEvent, 0, capN)
	for i := n; i < n+capN; i++ {
		rt.Events = append(rt.Events, t.buf[int(i)%len(t.buf)])
	}
	return rt
}

// timelineMagic / timelineVersion head the packed gather payload so a
// corrupted or misrouted buffer fails loudly at decode.
const (
	timelineMagic   = 0x43465454 // "CFTT": CosmoFlow Training Timeline
	timelineVersion = 1
)

// encodedEventBytes is the packed size of one event: phase u8 + pad u8×3 +
// step i32 + start i64 + dur i64.
const encodedEventBytes = 24

// EncodeTimeline packs rt into a []float32 for transport over
// comm.Transport: the byte layout is little-endian and bit-cast four bytes
// per element, riding the CFT1 framing's exact float32-bit preservation.
func EncodeTimeline(rt RankTimeline) []float32 {
	n := len(rt.Events)
	b := make([]byte, 32+n*encodedEventBytes)
	binary.LittleEndian.PutUint32(b[0:], timelineMagic)
	binary.LittleEndian.PutUint32(b[4:], timelineVersion)
	binary.LittleEndian.PutUint32(b[8:], uint32(rt.Rank))
	binary.LittleEndian.PutUint64(b[12:], uint64(rt.BaseUnixNs))
	binary.LittleEndian.PutUint64(b[20:], uint64(rt.Dropped))
	binary.LittleEndian.PutUint32(b[28:], uint32(n))
	off := 32
	for _, ev := range rt.Events {
		b[off] = byte(ev.Phase)
		binary.LittleEndian.PutUint32(b[off+4:], uint32(ev.Step))
		binary.LittleEndian.PutUint64(b[off+8:], uint64(ev.StartNs))
		binary.LittleEndian.PutUint64(b[off+16:], uint64(ev.DurNs))
		off += encodedEventBytes
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeTimeline reverses EncodeTimeline, validating the header and length.
func DecodeTimeline(buf []float32) (RankTimeline, error) {
	b := make([]byte, 4*len(buf))
	for i, v := range buf {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	if len(b) < 32 {
		return RankTimeline{}, fmt.Errorf("obsv: timeline payload %d bytes, want at least 32", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != timelineMagic {
		return RankTimeline{}, fmt.Errorf("obsv: timeline payload bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != timelineVersion {
		return RankTimeline{}, fmt.Errorf("obsv: timeline payload version %d, want %d", v, timelineVersion)
	}
	rt := RankTimeline{
		Rank:       int(int32(binary.LittleEndian.Uint32(b[8:]))),
		BaseUnixNs: int64(binary.LittleEndian.Uint64(b[12:])),
		Dropped:    int64(binary.LittleEndian.Uint64(b[20:])),
	}
	n := int(binary.LittleEndian.Uint32(b[28:]))
	if want := 32 + n*encodedEventBytes; len(b) != want {
		return RankTimeline{}, fmt.Errorf("obsv: timeline payload %d bytes, want %d for %d events", len(b), want, n)
	}
	rt.Events = make([]TimelineEvent, n)
	off := 32
	for i := range rt.Events {
		p := Phase(b[off])
		if p >= NumPhases {
			return RankTimeline{}, fmt.Errorf("obsv: timeline event %d has unknown phase %d", i, b[off])
		}
		rt.Events[i] = TimelineEvent{
			Phase:   p,
			Step:    int32(binary.LittleEndian.Uint32(b[off+4:])),
			StartNs: int64(binary.LittleEndian.Uint64(b[off+8:])),
			DurNs:   int64(binary.LittleEndian.Uint64(b[off+16:])),
		}
		off += encodedEventBytes
	}
	return rt, nil
}

// SortTimelines orders rank timelines by rank, the canonical order for
// export and reporting.
func SortTimelines(tls []RankTimeline) {
	sort.Slice(tls, func(i, j int) bool { return tls[i].Rank < tls[j].Rank })
}
