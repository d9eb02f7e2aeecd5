package gateway

import (
	"fmt"
	"testing"
)

func fakeBackends(n int) []*Backend {
	out := make([]*Backend, n)
	for i := range out {
		out[i] = &Backend{addr: fmt.Sprintf("http://b%d", i)}
	}
	return out
}

func TestLeastOutstandingPicksMin(t *testing.T) {
	bs := fakeBackends(3)
	bs[0].outstanding.Store(5)
	bs[1].outstanding.Store(1)
	bs[2].outstanding.Store(9)
	p := &leastOutstanding{}
	for i := 0; i < 10; i++ {
		if got := p.Pick("m", bs); got != bs[1] {
			t.Fatalf("pick %d = %s, want %s", i, got.Addr(), bs[1].Addr())
		}
	}
	if p.Pick("m", nil) != nil {
		t.Fatal("empty candidate set must pick nil")
	}
}

func TestLeastOutstandingRotatesTies(t *testing.T) {
	bs := fakeBackends(4)
	p := &leastOutstanding{}
	seen := map[*Backend]bool{}
	for i := 0; i < 32; i++ {
		seen[p.Pick("m", bs)] = true
	}
	if len(seen) != len(bs) {
		t.Fatalf("tie rotation reached %d of %d idle backends", len(seen), len(bs))
	}
}

func TestConsistentHashStableAndMinimalRemap(t *testing.T) {
	bs := fakeBackends(4)
	r := newHashRing(bs)

	// Stability: the same model maps to the same backend every time.
	models := make([]string, 50)
	first := make([]*Backend, 50)
	for i := range models {
		models[i] = fmt.Sprintf("model-%d", i)
		first[i] = r.Pick(models[i], bs)
		if first[i] == nil {
			t.Fatalf("model %s mapped to nil with full candidate set", models[i])
		}
	}
	for i, m := range models {
		if got := r.Pick(m, bs); got != first[i] {
			t.Fatalf("model %s remapped with unchanged candidates: %s -> %s",
				m, first[i].Addr(), got.Addr())
		}
	}

	// Spread: 4 backends × 50 models should all get something.
	byBackend := map[*Backend]int{}
	for i := range models {
		byBackend[first[i]]++
	}
	if len(byBackend) != len(bs) {
		t.Fatalf("50 models landed on only %d of %d backends", len(byBackend), len(bs))
	}

	// Minimal remap: dropping one backend moves only the models that
	// lived on it.
	dropped := first[0]
	var cands []*Backend
	for _, b := range bs {
		if b != dropped {
			cands = append(cands, b)
		}
	}
	for i, m := range models {
		got := r.Pick(m, cands)
		if first[i] == dropped {
			if got == dropped || got == nil {
				t.Fatalf("model %s still on dropped backend", m)
			}
			continue
		}
		if got != first[i] {
			t.Fatalf("model %s moved (%s -> %s) though its backend survived",
				m, first[i].Addr(), got.Addr())
		}
	}
}

func TestNewPolicyRejectsUnknown(t *testing.T) {
	if _, err := newPolicy("zigzag", nil); err == nil {
		t.Fatal("unknown policy must error")
	}
	p, err := newPolicy("", nil)
	if err != nil || p.Name() != PolicyLeastOutstanding {
		t.Fatalf("default policy = %v, %v", p, err)
	}
}
