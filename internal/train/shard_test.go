package train

import (
	"io"
	"testing"

	"repro/internal/cosmo"
	"repro/internal/data"
)

// The data.Assign deal underpins distributed bit-identity: every process
// recomputes the same per-epoch permutation locally, so ranks agree on the
// global sample order with zero coordination traffic. These tests pin the
// three properties that argument needs on the in-memory training set,
// data.InMemory, comparing sample pointers.

// dealt drains rank's epoch stream.
func dealt(t *testing.T, ds data.Dataset, epoch, rank, ranks int) []*cosmo.Sample {
	t.Helper()
	s, err := ds.EpochStream(epoch, rank, ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []*cosmo.Sample
	for {
		smp, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, smp)
	}
}

// dealtAll is the epoch's whole deal: every rank's stream, in rank order.
func dealtAll(t *testing.T, ds data.Dataset, epoch, ranks int) []*cosmo.Sample {
	t.Helper()
	var out []*cosmo.Sample
	for rank := 0; rank < ranks; rank++ {
		out = append(out, dealt(t, ds, epoch, rank, ranks)...)
	}
	return out
}

// Same seed, same epoch → the same deal, no matter how often or in which
// process it is recomputed.
func TestShardReshuffleDeterministic(t *testing.T) {
	samples := syntheticSet(24, 8, 11)
	a, b := data.InMemory(samples, 5), data.InMemory(samples, 5)
	for epoch := 0; epoch < 4; epoch++ {
		da, db := dealtAll(t, a, epoch, 3), dealtAll(t, b, epoch, 3)
		if len(da) != len(samples) || len(db) != len(samples) {
			t.Fatalf("epoch %d: dealt %d and %d samples, want %d", epoch, len(da), len(db), len(samples))
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("epoch %d: deal differs at %d", epoch, i)
			}
		}
	}
}

// Different epochs reshuffle: the deal is epoch-dependent (§IV-C's random
// TFRecord reassignment), not one fixed order replayed.
func TestShardReshufflesAcrossEpochs(t *testing.T) {
	samples := syntheticSet(32, 8, 12)
	ds := data.InMemory(samples, 9)
	first := dealtAll(t, ds, 0, 4)
	diff := 0
	for epoch := 1; epoch <= 3; epoch++ {
		for i, s := range dealtAll(t, ds, epoch, 4) {
			if s != first[i] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("epochs 1..3 replayed epoch 0's deal exactly")
	}

	// A different seed must also reshuffle.
	same := true
	for i, s := range dealtAll(t, data.InMemory(samples, 10), 0, 4) {
		if s != first[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical epoch-0 deals")
	}
}

// Every epoch, the rank shards are a disjoint cover: each sample is dealt
// to exactly one rank, and all samples are dealt, for every epoch.
func TestShardDisjointCoverEveryEpoch(t *testing.T) {
	const nSamples, ranks = 20, 4
	samples := syntheticSet(nSamples, 8, 13)
	ds := data.InMemory(samples, 21)
	steps := ds.StepsPerEpoch(ranks)
	if steps != nSamples/ranks {
		t.Fatalf("StepsPerEpoch(%d) = %d, want %d", ranks, steps, nSamples/ranks)
	}
	for epoch := 0; epoch < 5; epoch++ {
		seen := make(map[*cosmo.Sample]int) // deliveries this epoch
		for rank := 0; rank < ranks; rank++ {
			got := dealt(t, ds, epoch, rank, ranks)
			if len(got) != steps {
				t.Fatalf("epoch %d: rank %d dealt %d samples, want %d", epoch, rank, len(got), steps)
			}
			for _, s := range got {
				seen[s]++
			}
		}
		if len(seen) != nSamples {
			t.Fatalf("epoch %d: shards covered %d distinct samples, want %d", epoch, len(seen), nSamples)
		}
		for _, c := range seen {
			if c != 1 {
				t.Fatalf("epoch %d: a sample was dealt %d times", epoch, c)
			}
		}
	}
}
