package data

import (
	"fmt"
	"math/rand"
)

// Per-epoch shard assignment: every rank recomputes the same seeded
// permutation locally and deals itself a disjoint slice of it, so ranks
// agree on who streams which shards with zero coordination traffic — the
// paper's §IV-C random TFRecord-to-node reassignment. It is the only deal
// in the training path: a streamed Loader deals its manifest shards, and
// InMemory deals an in-memory set as one-sample shards. Because the
// assignment is a pure function of (nShards, ranks, seed, epoch), a run
// resumed from a checkpoint at epoch E deals exactly the shards the
// uninterrupted run would have dealt at E.

// assignRNG builds the epoch's permutation source: the one RNG recipe
// every training deal derives from, so the same seed shuffles the same way
// whether the shards are files or single samples.
func assignRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(epoch)*0x9E3779B9))
}

// Assign returns, for each rank, the shard indices it streams this epoch:
// a seeded epoch permutation of [0, nShards) dealt round-robin, truncated
// so every rank receives exactly nShards/ranks shards. The per-rank lists
// are pairwise disjoint; when ranks divides nShards they cover every
// shard, otherwise the epoch's leftover shards sit out (a different
// leftover set each epoch, since the permutation reshuffles).
func Assign(nShards, ranks int, seed int64, epoch int) ([][]int, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("data: ranks %d must be positive", ranks)
	}
	perRank := nShards / ranks
	if perRank < 1 {
		return nil, fmt.Errorf("data: %d shards for %d ranks; rank-disjoint assignment needs at least one shard per rank", nShards, ranks)
	}
	perm := assignRNG(seed, epoch).Perm(nShards)
	out := make([][]int, ranks)
	for r := range out {
		out[r] = make([]int, 0, perRank)
	}
	for i, shard := range perm[:perRank*ranks] {
		r := i % ranks
		out[r] = append(out[r], shard)
	}
	return out, nil
}

// rankAssignment returns rank's slice of the epoch's Assign deal — what
// every Dataset's EpochStream streams.
func rankAssignment(nShards, rank, ranks int, seed int64, epoch int) ([]int, error) {
	assign, err := Assign(nShards, ranks, seed, epoch)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= ranks {
		return nil, fmt.Errorf("data: rank %d outside world of %d", rank, ranks)
	}
	return assign[rank], nil
}
