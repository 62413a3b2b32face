package lp

import (
	"math"
	"testing"

	"greencell/internal/rng"
)

// TestPresolveCacheBitIdentical requires cached and uncached solves to be
// literally indistinguishable — same status, bit-equal objective and
// values, same iteration count — across repeated value edits (cache hits)
// and a fixed-pattern change (cache miss and refill).
func TestPresolveCacheBitIdentical(t *testing.T) {
	src := rng.New(4242)
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(6)
		m := 1 + src.Intn(6)
		p, _, ids := feasibleRandomLP(src, n, m, Minimize)
		// Fix a couple of variables so presolve has real work to cache.
		for j := 0; j < n; j++ {
			if src.Bernoulli(0.4) {
				v := src.Uniform(-1, 1)
				p.SetVarBounds(ids[j], v, v)
			}
		}
		var cache PresolveCache
		for round := 0; round < 6; round++ {
			want, err := p.Clone().Solve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.SolveCached(&cache)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || got.Iterations != want.Iterations {
				t.Fatalf("trial %d round %d: cached (status=%v iters=%d) vs fresh (status=%v iters=%d)",
					trial, round, got.Status, got.Iterations, want.Status, want.Iterations)
			}
			if want.Status == Optimal {
				if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
					t.Fatalf("trial %d round %d: objective differs in bits: %v vs %v",
						trial, round, got.Objective, want.Objective)
				}
				gx, wx := got.Values(), want.Values()
				for j := range wx {
					if math.Float64bits(gx[j]) != math.Float64bits(wx[j]) {
						t.Fatalf("trial %d round %d var %d: %v vs %v", trial, round, j, gx[j], wx[j])
					}
				}
			}
			// Value edits only: next round is a cache hit.
			for i := 0; i < p.NumConstraints(); i++ {
				p.SetConstraintRHS(i, p.ConstraintRHS(i)+src.Uniform(-0.3, 0.3))
			}
			if round == 3 {
				// Change the fixed pattern: forces a miss and refill.
				lo, _ := p.VarBounds(ids[0])
				p.SetVarBounds(ids[0], lo, lo+1)
			}
		}
	}
}
