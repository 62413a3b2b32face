package lp

import "math"

// PresolveCache memoizes presolve's structural analysis — the fixed
// variable and dropped row mappings plus the reduced problem skeleton —
// keyed by a signature of the problem's structure. Re-solving a problem of
// the same shape (dimensions, relations, term pattern and coefficients,
// fixed-variable pattern) refreshes only the value-dependent pieces
// (bounds, costs, right-hand sides) instead of rebuilding the reduction,
// which is where the energy-management layer spends its time: its
// golden-section search solves one problem shape dozens of times per slot
// with only the budget row's RHS moving.
//
// A refreshed reduction is bit-identical to a fresh presolve (the refresh
// replays the same arithmetic in the same order), so cached solves return
// identical results and iteration counts — the property that lets the
// golden-pinned simulation path use the cache safely.
//
// The zero value is ready to use. A PresolveCache is not safe for
// concurrent use.
type PresolveCache struct {
	sig   uint64
	valid bool
	// work holds the cached reduction (work.ps) and the tableau, reused
	// across the cached solves, each of which may be of a freshly built
	// Problem.
	work workspace
}

// FNV-1a-style 64-bit mixing, one multiply per word instead of one per
// byte: signatures are hashed over every constraint term of LPs rebuilt
// each slot, and the byte-wise loop was measurable in slot profiles. The
// values are ephemeral (never persisted).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime64
	h ^= h >> 29
	return h
}

// presolveSignature hashes everything presolve's structural decisions
// depend on: sense, dimensions, each variable's fixed/free state, and each
// constraint's relation and exact terms. Bounds (beyond fixedness), costs,
// and right-hand sides are excluded — they are refreshed on a cache hit.
// Variable and constraint names are also excluded; they only label error
// messages.
func (p *Problem) presolveSignature() uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(p.sense))
	h = fnvMix(h, uint64(len(p.vars)))
	for _, v := range p.vars {
		bit := uint64(0)
		if v.hi-v.lo <= presolveEps {
			bit = 1
		}
		h = fnvMix(h, bit)
	}
	h = fnvMix(h, uint64(len(p.cons)))
	for _, c := range p.cons {
		h = fnvMix(h, uint64(c.rel))
		h = fnvMix(h, uint64(len(c.terms)))
		for _, t := range c.terms {
			h = fnvMix(h, uint64(t.Var))
			h = fnvMix(h, math.Float64bits(t.Coef))
		}
	}
	return h
}

// refresh re-derives the value-dependent parts of the reduction from p —
// reduced bounds/costs/rhs, substituted values, empty-row consistency —
// leaving the structure (mappings and term lists) untouched. The
// arithmetic replays presolve's exact operation order, so a refreshed
// reduction is bit-identical to a fresh presolve of p. It reports false
// when a fully substituted row has become inconsistent (the problem is
// infeasible at the current bounds and right-hand sides).
func (ps *presolved) refresh(p *Problem) bool {
	if ps.identity {
		return true
	}
	red := ps.reduced
	red.maxIters = p.maxIters
	for j, v := range p.vars {
		if rj := ps.varMap[j]; rj >= 0 {
			red.vars[rj].lo = v.lo
			red.vars[rj].hi = v.hi
			red.vars[rj].cost = v.cost
		} else {
			ps.fixedVal[j] = (v.lo + v.hi) / 2
		}
	}
	for i, c := range p.cons {
		rhs := c.rhs
		for _, t := range c.terms {
			if ps.varMap[t.Var] < 0 {
				rhs -= t.Coef * ps.fixedVal[t.Var]
			}
		}
		if ri := ps.rowMap[i]; ri >= 0 {
			red.cons[ri].rhs = rhs
		} else {
			const tol = 1e-7
			ok := true
			switch c.rel {
			case LE:
				ok = 0 <= rhs+tol
			case GE:
				ok = 0 >= rhs-tol
			case EQ:
				ok = math.Abs(rhs) <= tol
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// SolveCached optimizes like Solve but reuses c's memoized presolve
// analysis when the problem's structure matches the cached signature,
// refreshing bounds, costs, and right-hand sides in place. Results and
// iteration counts are identical to Solve — the cache only removes the
// per-call reduction rebuild. A nil cache degrades to Solve.
func (p *Problem) SolveCached(c *PresolveCache) (*Solution, error) {
	if c == nil {
		return p.Solve()
	}
	if sol, err := p.validateForSolve(); sol != nil || err != nil {
		return sol, err
	}
	sig := p.presolveSignature()
	if c.valid && c.sig == sig {
		if !c.work.ps.refresh(p) {
			return &Solution{Status: Infeasible}, nil
		}
		return p.solvePresolved(&c.work)
	}
	c.work.ps.build(p)
	// Infeasible reductions stop early with partial mappings; cache only
	// complete analyses.
	c.sig, c.valid = sig, !c.work.ps.infeasible
	return p.solvePresolved(&c.work)
}
