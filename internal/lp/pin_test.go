package lp

import (
	"fmt"
	"math"
	"testing"

	"greencell/internal/rng"
	"greencell/internal/topology"
	"greencell/internal/units"
)

// pinCorpusHash is the FNV-64a digest of every solve in the pin corpus:
// status, iteration count and the bit patterns of the objective, the primal
// values and the duals. The cold engine's results are pinned bit for bit by
// the golden metrics fixtures; this constant pins them at the LP layer, so
// a change to the engine's floating-point operations or their order fails
// here, next to the cause.
const pinCorpusHash = 0xb88d950359d79

// pinSolve is one solve of the pin corpus.
type pinSolve struct {
	label string
	p     *Problem
	sol   *Solution
}

// runPinCorpus drives the pin corpus and hands every solve to visit, right
// after it returns (the Problem may be edited afterwards). The corpus is:
//
//   - the sequential-fix rounds over the S1 relaxation of paper-scale
//     topologies: one Problem, solved, pinned further and re-solved;
//   - S4-shaped energy-management probes: a fresh Problem per probe,
//     solved through one PresolveCache per search;
//   - random dense and random sparse feasible LPs.
func runPinCorpus(t *testing.T, visit func(pinSolve)) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		pinSequentialFix(t, seed, visit)
	}
	for seed := int64(1); seed <= 4; seed++ {
		pinBudgetProbes(t, seed, visit)
	}
	src := rng.New(11)
	for _, sz := range [][2]int{{10, 8}, {60, 50}, {30, 45}, {90, 20}} {
		p := buildDense(src, sz[0], sz[1])
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		visit(pinSolve{fmt.Sprintf("dense %dx%d", sz[1], sz[0]), p, sol})
	}
	for trial := 0; trial < 40; trial++ {
		sense := Minimize
		if trial%2 == 1 {
			sense = Maximize
		}
		p, _, _ := feasibleRandomLP(src, 2+src.Intn(12), src.Intn(14), sense)
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		visit(pinSolve{fmt.Sprintf("random %d", trial), p, sol})
	}
}

// s1Pair is a (link, band) activity of the S1 relaxation.
type s1Pair struct{ from, to, band int }

// s1Problem builds the LP relaxation of S1 the way the scheduler does
// (internal/sched buildLP): one α ∈ [0,1] per SINR-screened (link, band)
// pair weighted by backlog × capacity, a radio row per node, a one-band
// row per link and a normalized big-M SINR row per pair. Weights are
// drawn on about a third of the links, the steady-state density.
func s1Problem(t *testing.T, seed int64) (*Problem, []VarID, []s1Pair) {
	t.Helper()
	src := rng.New(seed)
	net, err := topology.Build(topology.Paper(), src.Split("topology"))
	if err != nil {
		t.Fatal(err)
	}
	widths := units.HzSlice(net.Spectrum.SampleWidths(src.Split("widths")))
	rad := net.Radio
	p := NewProblem(Maximize)
	var (
		ids    []VarID
		pairs  []s1Pair
		byNode = make([][]Term, net.NumNodes())
		byLink = make([][]Term, len(net.Links))
	)
	for l, link := range net.Links {
		if !src.Bernoulli(0.35) {
			continue
		}
		w := src.Uniform(1, 500)
		pmax := net.MaxTxPower(link.From).Watts()
		for _, b := range link.Bands {
			rate := rad.Capacity(widths[b])
			if rate <= 0 || rad.InterferenceFreeSINR(net.Gains[link.From][link.To], pmax, widths[b]) < rad.SINRThreshold {
				continue
			}
			id := p.AddVar("a", 0, 1, w*rate)
			ids = append(ids, id)
			pairs = append(pairs, s1Pair{link.From, link.To, b})
			byNode[link.From] = append(byNode[link.From], Term{id, 1})
			byNode[link.To] = append(byNode[link.To], Term{id, 1})
			byLink[l] = append(byLink[l], Term{id, 1})
		}
	}
	for node, terms := range byNode {
		if len(terms) > net.Radios(node) {
			p.AddConstraint("radio", LE, float64(net.Radios(node)), terms...)
		}
	}
	for _, terms := range byLink {
		if len(terms) > 1 {
			p.AddConstraint("oneband", LE, 1, terms...)
		}
	}
	gamma, eta := rad.SINRThreshold, rad.NoiseDensity
	for k, pr := range pairs {
		noise := eta * widths[pr.band]
		bigM := noise
		for other := range net.Nodes {
			if other != pr.from {
				bigM += net.Gains[other][pr.to] * net.MaxTxPower(other).Watts()
			}
		}
		bigM *= gamma
		gP := net.Gains[pr.from][pr.to] * net.MaxTxPower(pr.from).Watts()
		scale := 1.0
		if rhs := bigM - gamma*noise; rhs > 0 {
			scale = 1 / rhs
		}
		terms := []Term{{ids[k], (bigM - gP) * scale}}
		for k2, pr2 := range pairs {
			if k2 == k || pr2.band != pr.band || pr2.from == pr.from {
				continue
			}
			if coef := gamma * net.Gains[pr2.from][pr.to] * net.MaxTxPower(pr2.from).Watts(); coef != 0 {
				terms = append(terms, Term{ids[k2], coef * scale})
			}
		}
		p.AddConstraint("sinr", LE, (bigM-gamma*noise)*scale, terms...)
	}
	return p, ids, pairs
}

// pinSequentialFix runs fixing rounds over one S1 relaxation: every round
// solves, pins each pair the LP set to one, then tries the largest
// fractional pair at one (back to zero when that makes the LP infeasible)
// and zeroes the pairs whose nodes have no radio left — the shrinking,
// re-solved Problem the sequential-fix scheduler produces.
func pinSequentialFix(t *testing.T, seed int64, visit func(pinSolve)) {
	t.Helper()
	p, ids, pairs := s1Problem(t, seed)
	const tol = 1e-6
	fixed := make([]bool, len(pairs))
	busy := map[int]bool{}
	pin := func(k int, v float64) {
		fixed[k] = true
		p.SetVarBounds(ids[k], v, v)
	}
	claim := func(k int) {
		pin(k, 1)
		busy[pairs[k].from], busy[pairs[k].to] = true, true
		for k2, pr := range pairs {
			if !fixed[k2] && (busy[pr.from] || busy[pr.to]) {
				pin(k2, 0)
			}
		}
	}
	solve := func(round int) *Solution {
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		visit(pinSolve{fmt.Sprintf("sf seed %d round %d", seed, round), p, sol})
		return sol
	}
	for round := 0; ; round++ {
		sol := solve(round)
		if sol.Status != Optimal {
			t.Fatalf("sf seed %d round %d: %v", seed, round, sol.Status)
		}
		best, bestV := -1, tol
		for k := range pairs {
			switch v := sol.Value(ids[k]); {
			case fixed[k]:
			case v >= 1-tol && !busy[pairs[k].from] && !busy[pairs[k].to]:
				claim(k)
			case v > bestV && v < 1-tol:
				best, bestV = k, v
			}
		}
		if best >= 0 && !fixed[best] {
			p.SetVarBounds(ids[best], 1, 1)
			if solve(round).Status == Optimal {
				claim(best)
			} else {
				pin(best, 0)
			}
		}
		free := 0
		for k := range pairs {
			if !fixed[k] {
				free++
			}
		}
		if free == 0 || best < 0 {
			return
		}
	}
}

// pinBudgetProbes mirrors the S4 energy-management search: per node the
// relaxed renewable/grid/battery LP, joined over the base stations under a
// total grid-draw budget row, probed at a golden-section sequence of
// budgets. Every probe builds a fresh Problem and solves it through one
// PresolveCache. A zero discharge headroom pins a variable, so some
// probes go through presolve's reduction and some solve the problem as
// built.
func pinBudgetProbes(t *testing.T, seed int64, visit func(pinSolve)) {
	t.Helper()
	src := rng.New(100 + seed)
	type node struct{ z, renew, chargeCap, gridCap, dischargeCap, demand float64 }
	nodes := make([]node, 2+int(seed))
	for i := range nodes {
		nodes[i] = node{
			z:         src.Uniform(-50, 50),
			renew:     src.Uniform(0, 4),
			chargeCap: src.Uniform(0, 3),
			gridCap:   src.Uniform(0, 6),
			demand:    src.Uniform(0, 8),
		}
		if seed%2 == 0 || i%2 == 1 {
			nodes[i].dischargeCap = src.Uniform(0, 3)
		}
	}
	const pen = 1e3
	inf := math.Inf(1)
	build := func(budget float64) *Problem {
		p := NewProblem(Minimize)
		var budgetTerms []Term
		for _, n := range nodes {
			r := p.AddVar("r", 0, inf, 0)
			cr := p.AddVar("cr", 0, inf, n.z)
			g := p.AddVar("g", 0, inf, 0)
			cg := p.AddVar("cg", 0, inf, n.z)
			d := p.AddVar("d", 0, n.dischargeCap, -n.z)
			u := p.AddVar("u", 0, inf, pen)
			p.AddConstraint("renew", LE, n.renew, Term{r, 1}, Term{cr, 1})
			p.AddConstraint("chargecap", LE, n.chargeCap, Term{cr, 1}, Term{cg, 1})
			p.AddConstraint("gridcap", LE, n.gridCap, Term{g, 1}, Term{cg, 1})
			p.AddConstraint("demand", EQ, n.demand, Term{g, 1}, Term{r, 1}, Term{d, 1}, Term{u, 1})
			budgetTerms = append(budgetTerms, Term{g, 1}, Term{cg, 1})
		}
		p.AddConstraint("budget", LE, budget, budgetTerms...)
		return p
	}
	var cache PresolveCache
	lo, hi := 0.0, 6*float64(len(nodes))
	const invPhi = 0.6180339887498949
	for probe := 0; probe < 14; probe++ {
		a := hi - invPhi*(hi-lo)
		b := lo + invPhi*(hi-lo)
		for _, budget := range []float64{a, b} {
			p := build(budget)
			sol, err := p.SolveCached(&cache)
			if err != nil {
				t.Fatal(err)
			}
			visit(pinSolve{fmt.Sprintf("s4 seed %d probe %d", seed, probe), p, sol})
		}
		if probe%2 == 0 {
			hi = b
		} else {
			lo = a
		}
	}
}

// pinDigest accumulates the bit patterns of solves into an FNV-64a hash
// of their little-endian bytes.
type pinDigest struct {
	h uint64
	n int
}

func newPinDigest() *pinDigest { return &pinDigest{h: 14695981039346656037} }

func (d *pinDigest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *pinDigest) add(p *Problem, sol *Solution) {
	d.n++
	d.word(uint64(sol.Status))
	d.word(uint64(sol.Iterations))
	d.word(math.Float64bits(sol.Objective))
	for _, v := range sol.Values() {
		d.word(math.Float64bits(v))
	}
	for i := 0; i < p.NumConstraints(); i++ {
		d.word(math.Float64bits(sol.Dual(i)))
	}
}

// TestPinCorpusBitIdentity solves the pin corpus and compares the digest
// of every result with pinCorpusHash. Each Optimal solve must also carry
// a valid optimality certificate.
func TestPinCorpusBitIdentity(t *testing.T) {
	d := newPinDigest()
	optimal := 0
	runPinCorpus(t, func(s pinSolve) {
		d.add(s.p, s.sol)
		if s.sol.Status == Optimal {
			optimal++
			if err := certify(s.p, s.sol); err != nil {
				t.Fatalf("%s: %v", s.label, err)
			}
		}
	})
	t.Logf("%d solves (%d optimal), digest %#x", d.n, optimal, d.h)
	if got := d.h; got != pinCorpusHash {
		t.Fatalf("pin corpus digest = %#x, want %#x: the cold engine's results changed bit for bit", got, pinCorpusHash)
	}
}
