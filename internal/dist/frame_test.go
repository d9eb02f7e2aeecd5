package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/serve/wire"
)

// refWriteFrame is the frame encoder the transport used before data frames
// were written as the buffer's own bytes: the serving codec's element-wise
// CFT1 encoder behind the same 6-byte frame header. The bytes on the wire
// must not change, so writeFrame is checked against it.
func refWriteFrame(w io.Writer, kind, tag byte, buf []float32) error {
	body := 0
	var tens *wire.Tensor
	if len(buf) > 0 {
		var err error
		if tens, err = wire.FromFloat32([]int{len(buf)}, buf); err != nil {
			return err
		}
		body = tens.EncodedSize()
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(2+body))
	hdr[4], hdr[5] = kind, tag
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if tens != nil {
		_, err := tens.WriteTo(w)
		return err
	}
	return nil
}

// oddFloats fills n values that a conversion would most likely disturb:
// NaNs with distinct payloads, both zeros, subnormals, both infinities,
// then ordinary values.
func oddFloats(n int, seed int64) []float32 {
	special := []uint32{
		0x7fc00000, 0x7f800001, 0xffc00123, 0x7fbfffff, // quiet and signalling NaNs
		0x80000000, 0x00000000, // −0, +0
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		if i < len(special) {
			out[i] = math.Float32frombits(special[i])
		} else {
			out[i] = math.Float32frombits(rng.Uint32())
		}
	}
	return out
}

// TestFrameBytesMatchWireCodec pins the wire format: writeFrame produces,
// byte for byte, what the element-wise CFT1 encoder produced, around the
// old 1024-element staging chunk too, and readFrame returns every bit
// pattern it was given.
func TestFrameBytesMatchWireCodec(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1023, 1024, 1025, 3000} {
		buf := oddFloats(n, int64(n))
		var got, want bytes.Buffer
		if err := writeFrame(&got, frameData, 7, buf); err != nil {
			t.Fatalf("n=%d: writeFrame: %v", n, err)
		}
		if err := refWriteFrame(&want, frameData, 7, buf); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: frame bytes differ from the CFT1 codec's (%d vs %d bytes)", n, got.Len(), want.Len())
		}
		kind, tag, dec, err := readFrame(bufio.NewReader(&got), new(recycler))
		if err != nil {
			t.Fatalf("n=%d: readFrame: %v", n, err)
		}
		if kind != frameData || tag != 7 || len(dec) != n {
			t.Fatalf("n=%d: decoded kind %d tag %d len %d", n, kind, tag, len(dec))
		}
		for i := range dec {
			if math.Float32bits(dec[i]) != math.Float32bits(buf[i]) {
				t.Fatalf("n=%d: element %d decoded %#08x, sent %#08x",
					n, i, math.Float32bits(dec[i]), math.Float32bits(buf[i]))
			}
		}
	}
}

// fuzzMaxClaim caps the frame length a fuzz input may claim beyond its own
// size: readFrame sizes the payload buffer from a valid header before
// reading it, so a short input claiming near maxFrameBytes would allocate
// up to 1 GB per execution. Claims past maxFrameBytes are always tried.
const fuzzMaxClaim = 1 << 16

// FuzzReadFrame throws arbitrary bytes at the frame decoder. It must never
// panic, and any frame it accepts must re-encode through writeFrame to
// exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	frame := func(kind, tag byte, buf []float32) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, kind, tag, buf); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	withBody := func(body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(2+len(body)))
		return append(append(b, frameData, 0), body...)
	}
	valid := frame(frameData, 3, []float32{1, -2, float32(math.NaN())})
	f.Add(valid)
	f.Add(frame(frameData, 0, nil))
	f.Add(frame(frameHeartbeat, 0, nil))
	f.Add(frame(frameGoodbye, 0, nil))
	f.Add(append(frame(frameData, 1, []float32{4}), valid...)) // two frames back to back
	// Truncated: header only, CFT1 header cut short, payload cut short.
	f.Add(valid[:4])
	f.Add(valid[:10])
	f.Add(valid[:len(valid)-1])
	// A 2-d and a float64 body.
	t2, _ := wire.FromFloat32([]int{1, 2}, []float32{1, 2})
	t64, _ := wire.FromFloat64([]int{2}, []float64{1, 2})
	for _, tens := range []*wire.Tensor{t2, t64} {
		var b bytes.Buffer
		tens.WriteTo(&b)
		f.Add(withBody(b.Bytes()))
	}
	// The frame length disagrees with the CFT1 header: one payload byte
	// too many, and one element too few.
	long := append(withBody(valid[6:]), 0)
	binary.LittleEndian.PutUint32(long, binary.LittleEndian.Uint32(long)+1)
	f.Add(long)
	f.Add(withBody(valid[6 : len(valid)-4]))
	// Length prefixes past maxFrameBytes, and below the 2-byte minimum.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameData, 0})
	f.Add(append(binary.LittleEndian.AppendUint32(nil, maxFrameBytes+1), frameData, 0))
	f.Add([]byte{1, 0, 0, 0, frameData})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			n := binary.LittleEndian.Uint32(data)
			if n <= maxFrameBytes && int64(n) > int64(len(data))+fuzzMaxClaim {
				return
			}
		}
		kind, tag, buf, err := readFrame(bufio.NewReader(bytes.NewReader(data)), new(recycler))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := writeFrame(&re, kind, tag, buf); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if re.Len() > len(data) || !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatalf("re-encoded frame differs from the bytes read:\nin  %x\nout %x", data, re.Bytes())
		}
	})
}

// allReduceTCPElems is 1 M floats, split into two 2 MB ring segments on a
// 2-rank world.
const allReduceTCPElems = 1 << 20

// TestAllReduceTCPSteadyStateAllocs: once warm, an allreduce over TCP
// allocates almost nothing — each received segment lands in a buffer a
// previous collective released, not in a fresh one per message.
func TestAllReduceTCPSteadyStateAllocs(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{})
	defer closeAll(t, worlds)
	bufs := randomInputs(2, allReduceTCPElems, 5)
	step := func() {
		noErrors(t, runRanks(worlds, func(w *World) { w.Comm().AllReduceMean(bufs[w.Rank()]) }))
	}
	for i := 0; i < 3; i++ {
		step()
	}
	// A rank holds at most two received segments at once, but warm-up may
	// need only one: the second can be allocated inside the window, once.
	// 64 calls keep that one 2 MB buffer under the bound.
	const calls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / (calls * 2)
	t.Logf("%d B allocated per rank per AllReduceMean of %d floats", perCall, allReduceTCPElems)
	if perCall >= 64<<10 {
		t.Errorf("%d B allocated per rank per call, want < 64 KB", perCall)
	}
}

// BenchmarkAllReduceTCP is one AllReduceMean of 1 M floats across a 2-rank
// loopback TCP world, per iteration, after one untimed warm-up call.
func BenchmarkAllReduceTCP(b *testing.B) {
	worlds := newLocalWorld(b, 2, Config{})
	defer closeAll(b, worlds)
	bufs := randomInputs(2, allReduceTCPElems, 5)
	step := func() {
		noErrors(b, runRanks(worlds, func(w *World) { w.Comm().AllReduceMean(bufs[w.Rank()]) }))
	}
	step()
	b.SetBytes(4 * allReduceTCPElems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestGatherResultsSurviveLaterCollectives: Gather hands its caller the
// received buffers themselves, so they must never reach the transport's
// recycler — a later collective receiving a frame of the same length
// would overwrite the gathered block.
func TestGatherResultsSurviveLaterCollectives(t *testing.T) {
	worlds := newLocalWorld(t, 2, Config{})
	defer closeAll(t, worlds)
	const block = 1024
	local := randomInputs(2, block, 11)
	want := clone(local)
	var gathered [][]float32
	noErrors(t, runRanks(worlds, func(w *World) {
		c := w.Comm()
		got := c.Gather(local[w.Rank()], 0)
		if w.Rank() == 0 {
			gathered = got
		}
		// Ring segments of exactly the gathered block's length.
		buf := make([]float32, 2*block)
		for i := 0; i < 3; i++ {
			for j := range buf {
				buf[j] = float32(100*i + w.Rank())
			}
			c.AllReduceSum(buf)
		}
	}))
	for r := range want {
		for i := range want[r] {
			if math.Float32bits(gathered[r][i]) != math.Float32bits(want[r][i]) {
				t.Fatalf("gathered block %d element %d = %v after later collectives, want %v",
					r, i, gathered[r][i], want[r][i])
			}
		}
	}
}
