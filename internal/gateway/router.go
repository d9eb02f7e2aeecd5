package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// Policy names accepted by Config.Policy.
const (
	PolicyLeastOutstanding = "least-outstanding"
	PolicyConsistentHash   = "consistent-hash"
)

// A Policy picks one backend from the candidate set for a request on
// model. Candidates are already filtered to routable members that have
// not failed this request; Pick returns nil when the set is empty.
type Policy interface {
	Name() string
	Pick(model string, cands []*Backend) *Backend
}

func newPolicy(name string, backends []*Backend) (Policy, error) {
	switch name {
	case PolicyLeastOutstanding, "":
		return &leastOutstanding{}, nil
	case PolicyConsistentHash:
		return newHashRing(backends), nil
	}
	return nil, fmt.Errorf("gateway: unknown routing policy %q (want %s or %s)",
		name, PolicyLeastOutstanding, PolicyConsistentHash)
}

// leastOutstanding routes to the member with the fewest gateway requests
// currently in flight — the classic load-balancing policy for workloads
// with heterogeneous request costs (a 128³ volume next to a 16³ one).
// Ties rotate through a round-robin cursor so an idle pool still spreads.
type leastOutstanding struct {
	rr atomic.Uint64
}

func (l *leastOutstanding) Name() string { return PolicyLeastOutstanding }

func (l *leastOutstanding) Pick(model string, cands []*Backend) *Backend {
	if len(cands) == 0 {
		return nil
	}
	start := int(l.rr.Add(1) % uint64(len(cands)))
	best := cands[start]
	bestN := best.Outstanding()
	for i := 1; i < len(cands); i++ {
		b := cands[(start+i)%len(cands)]
		if n := b.Outstanding(); n < bestN {
			best, bestN = b, n
		}
	}
	return best
}

// hashRing is consistent-hash-by-model: all requests for one model land
// on one member (maximizing its batcher's coalescing and keeping any
// per-model working set hot), and a member's loss only remaps the models
// that hashed onto it. Each backend contributes vnodes points so the
// model → member map stays balanced at small pool sizes. Pool membership
// is fixed, so the point set is built once and read without a lock.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	b    *Backend
}

const vnodes = 64

func newHashRing(backends []*Backend) *hashRing {
	points := make([]ringPoint, 0, vnodes*len(backends))
	for _, b := range backends {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", b.Addr(), v)),
				b:    b,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	return &hashRing{points: points}
}

func (r *hashRing) Name() string { return PolicyConsistentHash }

// Pick walks the ring clockwise from the model's hash until it meets a
// point whose backend is in the candidate set — so ejected or failed
// members are skipped with the minimal remap consistent hashing promises.
func (r *hashRing) Pick(model string, cands []*Backend) *Backend {
	points := r.points
	if len(cands) == 0 || len(points) == 0 {
		return nil
	}
	ok := make(map[*Backend]bool, len(cands))
	for _, b := range cands {
		ok[b] = true
	}
	h := hash64(model)
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	for i := 0; i < len(points); i++ {
		p := points[(start+i)%len(points)]
		if ok[p.b] {
			return p.b
		}
	}
	return nil
}

// hash64 is FNV-1a finished with a splitmix64 avalanche. The finalizer
// matters: ring placement compares full 64-bit values, which are
// dominated by the high bits, and raw FNV-1a of short strings sharing a
// prefix ("model-1", "model-2", …) barely perturbs those — without the
// mix, every model hashes into one narrow band and the ring degenerates
// to a couple of members.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
