package obsv

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// timelineWords and timelineBytes convert between the gather payload's
// float32 words and the little-endian bytes they carry.
func timelineWords(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func timelineBytes(buf []float32) []byte {
	b := make([]byte, 4*len(buf))
	for i, v := range buf {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// FuzzDecodeTimeline: any payload decodes to an error or to a valid
// timeline, never a panic, and every accepted timeline survives a round
// trip through EncodeTimeline. The seeds cover 0, 1 and many events, a
// truncated header, bad magic and version, an unknown phase, and a header
// claiming 2³¹ events over a one-event payload.
func FuzzDecodeTimeline(f *testing.F) {
	// Kept short: minimizing an interesting input costs time quadratic in
	// its length.
	many := RankTimeline{Rank: 3, BaseUnixNs: 1 << 60, Dropped: 5}
	for i := 0; i < 6; i++ {
		many.Events = append(many.Events, TimelineEvent{
			Phase: Phase(i) % NumPhases, Step: int32(i / 4), StartNs: int64(i) * 1000, DurNs: int64(i) * 7,
		})
	}
	one := synth(1, 42, [4]int64{int64(PhaseForward), 0, 1, 2})
	valid := timelineBytes(EncodeTimeline(one))

	f.Add(timelineBytes(EncodeTimeline(RankTimeline{Rank: 0})))
	f.Add(valid)
	f.Add(timelineBytes(EncodeTimeline(many)))
	f.Add(valid[:16]) // truncated header
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], timelineVersion+1)
	f.Add(badVersion)
	unknownPhase := append([]byte(nil), valid...)
	unknownPhase[32] = byte(NumPhases)
	f.Add(unknownPhase)
	tooMany := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(tooMany[28:], 1<<31)
	f.Add(tooMany)

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := timelineWords(data)
		rt, err := DecodeTimeline(buf)
		if err != nil {
			return
		}
		if want := 32 + encodedEventBytes*len(rt.Events); 4*len(buf) != want {
			t.Fatalf("accepted %d payload bytes for %d events (want %d)", 4*len(buf), len(rt.Events), want)
		}
		for i, ev := range rt.Events {
			if ev.Phase >= NumPhases {
				t.Fatalf("accepted event %d with unknown phase %d", i, ev.Phase)
			}
		}
		back, err := DecodeTimeline(EncodeTimeline(rt))
		if err != nil {
			t.Fatalf("re-decoding an accepted timeline: %v", err)
		}
		if !reflect.DeepEqual(back, rt) {
			t.Fatalf("round trip changed the timeline:\n got %+v\nwant %+v", back, rt)
		}
	})
}
