package data

import (
	"io"

	"repro/internal/cosmo"
)

// InMemory serves an in-memory sample set as a Dataset whose shards are
// single samples, so it deals exactly as a Loader would over one-sample
// shards: StepsPerEpoch is len(samples)/ranks, and each epoch streams the
// rank's Assign slice of the seeded sample permutation. The streamed
// samples are the caller's own — nothing is copied or recycled, so they
// stay valid after Next moves on.
func InMemory(samples []*cosmo.Sample, seed int64) Dataset {
	return &inMemory{samples: samples, seed: seed}
}

type inMemory struct {
	samples []*cosmo.Sample
	seed    int64
}

// Dim returns the first sample's edge length, 0 for an empty set.
func (d *inMemory) Dim() int {
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[0].Dim
}

func (d *inMemory) StepsPerEpoch(ranks int) int {
	if ranks < 1 {
		return 0
	}
	return len(d.samples) / ranks
}

func (d *inMemory) EpochStream(epoch, rank, ranks int) (SampleStream, error) {
	order, err := rankAssignment(len(d.samples), rank, ranks, d.seed, epoch)
	if err != nil {
		return nil, err
	}
	return &sliceStream{samples: d.samples, order: order}, nil
}

// sliceStream yields samples[order[0]], samples[order[1]], … then io.EOF.
type sliceStream struct {
	samples []*cosmo.Sample
	order   []int
}

func (s *sliceStream) Next() (*cosmo.Sample, error) {
	if len(s.order) == 0 {
		return nil, io.EOF
	}
	out := s.samples[s.order[0]]
	s.order = s.order[1:]
	return out, nil
}

func (s *sliceStream) Close() error { return nil }
