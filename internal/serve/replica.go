package serve

import (
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/train"
)

// replica is one inference worker: a reusable batch predictor around a
// weight-sharing clone of the model's network, owned by one goroutine at a
// time. A whole micro-batch runs as one nn.InferBatch forward on the
// replica, so batching amortizes the kernels, not just the queueing.
type replica struct {
	pred *train.BatchPredictor
	pool *parallel.Pool

	// voxels is the reusable batch-assembly buffer for runBatch.
	voxels [][]float32
}

// replicaPool is a fixed set of replicas handed out over a channel:
// acquire blocks until a replica frees up, bounding concurrent forward
// passes to the replica count. Layers cache forward activations, so
// nn.Network.Forward is not concurrency-safe; per-worker clones sharing
// read-only weights are what make parallel serving sound (see
// nn.Network.Clone).
type replicaPool struct {
	replicas chan *replica
	all      []*replica
}

// newReplicaPool clones base n times. workersPerReplica sizes each clone's
// intra-node compute pool: 1 (the default) runs every replica
// single-threaded, which maximizes aggregate throughput when the replica
// count already covers the cores; larger values trade throughput for
// per-request latency, the same knob as the paper's OpenMP threads per
// rank.
func newReplicaPool(base *nn.Network, n, workersPerReplica int) *replicaPool {
	if n < 1 {
		n = 1
	}
	p := &replicaPool{
		replicas: make(chan *replica, n),
		all:      make([]*replica, 0, n),
	}
	if workersPerReplica < 1 {
		workersPerReplica = 1
	}
	for i := 0; i < n; i++ {
		pool := parallel.NewPool(workersPerReplica)
		r := &replica{pred: train.NewBatchPredictor(base.Clone(pool)), pool: pool}
		p.all = append(p.all, r)
		p.replicas <- r
	}
	return p
}

// acquire blocks until a replica is free.
func (p *replicaPool) acquire() *replica { return <-p.replicas }

// release returns a replica to the pool.
func (p *replicaPool) release(r *replica) { p.replicas <- r }

// size returns the replica count.
func (p *replicaPool) size() int { return len(p.all) }

// close tears down the replicas' compute pools. The caller must ensure no
// replica is in use (the batcher drains before the model closes its pool).
func (p *replicaPool) close() {
	for _, r := range p.all {
		if r.pool != nil {
			r.pool.Close()
		}
	}
}
