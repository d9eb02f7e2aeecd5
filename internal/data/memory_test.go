package data

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/cosmo"
)

// TestMemDatasetDeal pins InMemory's deal against the construction written
// out by hand: the epoch's seeded permutation of the sample indices,
// strided by rank and truncated to n/ranks — the order the trainer's
// in-memory path has always dealt, so runs trained before InMemory
// existed replay bit-identically.
func TestMemDatasetDeal(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		samples := make([]*cosmo.Sample, n)
		for i := range samples {
			samples[i] = &cosmo.Sample{Dim: 4}
		}
		for _, seed := range []int64{0, 5, 7, 99} {
			ds := InMemory(samples, seed)
			for ranks := 1; ranks <= 4; ranks++ {
				steps := n / ranks
				if got := ds.StepsPerEpoch(ranks); got != steps {
					t.Fatalf("n=%d: StepsPerEpoch(%d) = %d, want %d", n, ranks, got, steps)
				}
				for epoch := 0; epoch < 4; epoch++ {
					perm := rand.New(rand.NewSource(seed ^ int64(epoch)*0x9E3779B9)).Perm(n)
					for rank := 0; rank < ranks; rank++ {
						s, err := ds.EpochStream(epoch, rank, ranks)
						if steps == 0 {
							if err == nil {
								t.Fatalf("n=%d ranks=%d: EpochStream accepted fewer samples than ranks", n, ranks)
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						for k := 0; k < steps; k++ {
							got, err := s.Next()
							if err != nil {
								t.Fatalf("n=%d seed=%d ranks=%d epoch=%d rank=%d step %d: %v", n, seed, ranks, epoch, rank, k, err)
							}
							if want := samples[perm[rank+k*ranks]]; got != want {
								t.Fatalf("n=%d seed=%d ranks=%d epoch=%d rank=%d step %d: dealt the wrong sample", n, seed, ranks, epoch, rank, k)
							}
						}
						if _, err := s.Next(); err != io.EOF {
							t.Fatalf("n=%d ranks=%d rank=%d: stream ran past %d steps (err %v)", n, ranks, rank, steps, err)
						}
						s.Close()
					}
				}
			}
		}
	}
	if got := InMemory(nil, 0).Dim(); got != 0 {
		t.Fatalf("empty set Dim() = %d, want 0", got)
	}
	if got := InMemory([]*cosmo.Sample{{Dim: 4}}, 0).Dim(); got != 4 {
		t.Fatalf("Dim() = %d, want 4", got)
	}
}
