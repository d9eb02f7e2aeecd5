package tfrecord

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDecodeSample throws arbitrary payloads at the sample decoder, whose
// input arrives from shard files and over HTTP from cosmoflow-shardd. The
// invariants: DecodeSample never panics, every accepted sample has
// Dim ≥ 1 and exactly Dim³ voxels, and the encoding is canonical —
// EncodeSample of an accepted sample gives back the input bytes.
func FuzzDecodeSample(f *testing.F) {
	f.Add(EncodeSample(randomSample(rand.New(rand.NewSource(3)), 2)))
	f.Add(samplePayload(1<<22, 0)) // dim³ wraps to 0 voxels
	f.Add(samplePayload(0, 0))
	f.Add([]byte("CFS1"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := DecodeSample(buf)
		if err != nil {
			return
		}
		if s.Dim < 1 || len(s.Voxels) != s.Dim*s.Dim*s.Dim {
			t.Fatalf("accepted Dim %d with %d voxels", s.Dim, len(s.Voxels))
		}
		if again := EncodeSample(s); !bytes.Equal(again, buf) {
			t.Fatalf("re-encoding changed the payload:\n in  %x\n out %x", buf, again)
		}
	})
}
