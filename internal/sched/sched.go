// Package sched solves the paper's per-slot link-scheduling subproblem S1:
// choose the binary assignments α_ij^m(t) maximizing the virtual-queue
// weighted service Σ H_ij · Σ_m c_ij^m · α_ij^m subject to the single-radio
// constraint (22) and the big-M SINR constraint (24).
//
// Three solvers are provided:
//
//   - SequentialFix: the paper's SF heuristic — iteratively solve the LP
//     relaxation and round/fix variables until all are integral.
//   - Greedy: a fast weight-ordered insertion heuristic (ablation baseline
//     and large-scenario fallback).
//   - Exact: LP-based branch and bound (reference optimum for tests and
//     ablations on small instances).
//
// All three produce assignments that are feasible under (22) and under the
// Physical Model: transmission powers are finalized by Foschini–Miljanic
// power control, dropping links (lowest weight first) in the rare case the
// fixed schedule turns out SINR-infeasible.
//
// A fourth solver, Relaxed, returns the fractional LP optimum directly:
// it is the scheduling stage of the relaxed problem P3̄ behind the
// Theorem 5 lower bound, and doubles as the per-slot optimality
// certificate of the metrics layer (Instrumented.CompareRelaxed records
// relaxation − heuristic gaps; see docs/METRICS.md).
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"greencell/internal/bip"
	"greencell/internal/lp"
	"greencell/internal/radio"
	"greencell/internal/topology"
)

// Request is one slot's scheduling problem.
type Request struct {
	Net *topology.Network
	// Widths is W_m(t) per band, in Hz.
	Widths []float64
	// Weights is H_ij(t) per candidate link; non-positive entries exclude
	// the link from scheduling (the paper fixes α=0 when H_ij = 0).
	Weights []float64
	// TxPowerCap optionally lowers each node's transmit power below
	// P_i^max (nil = use P_i^max). The controller uses it to keep nodes
	// whose available energy cannot cover a transmission out of the
	// schedule.
	TxPowerCap []float64
	// MaxLPIterations, when positive, caps the total simplex iterations of
	// each LP solve this request triggers (lp.Problem.SetIterationLimit).
	// An exhausted budget surfaces as an error wrapping ErrIterationLimit,
	// on which the controller falls back to the idle safe action
	// (docs/ROBUSTNESS.md).
	MaxLPIterations int
}

func (r *Request) maxPower(node int) float64 {
	p := r.Net.MaxTxPower(node).Watts()
	if r.TxPowerCap != nil && r.TxPowerCap[node] < p {
		p = r.TxPowerCap[node]
	}
	return p
}

// SolveStats reports the optimization work behind one assignment, for the
// metrics layer (docs/METRICS.md): how many simplex solves the strategy
// issued and how many simplex iterations they took in total. Greedy issues
// none; SequentialFix one LP per fixing round; Exact one per
// branch-and-bound node; Relaxed exactly one.
type SolveStats struct {
	LPSolves     int
	LPIterations int
}

// Assignment is the outcome of scheduling one slot.
type Assignment struct {
	// LinkBand[l] is the band link l transmits on, -1 if unscheduled or
	// fractional (Relaxed scheduler).
	LinkBand []int
	// PowerW[l] is link l's (activity-weighted) transmit power in W.
	PowerW []float64
	// RateBits[l] is link l's capacity in bits/s (activity-weighted for
	// fractional schedules).
	RateBits []float64
	// Activity[l] is the link's duty in [0,1]: Σ_m α_l^m. Integral
	// schedulers produce exactly 0 or 1; the Relaxed scheduler fractions.
	// It weights the receiver's energy draw in eq. (23).
	Activity []float64
	// Stats reports the LP work spent producing this assignment.
	Stats SolveStats
}

// Scheduled reports whether link l is active.
func (a *Assignment) Scheduled(l int) bool { return a.LinkBand[l] >= 0 }

// Objective returns Σ_l weight_l · rate_l, the (scaled) value of the
// paper's Ψ̂1 that all three solvers maximize. It is the comparison metric
// used by tests, ablations, and the metrics layer. RateBits is already
// activity-weighted, so the sum is valid for fractional (Relaxed)
// schedules too, whose LinkBand entries are all -1.
func (a *Assignment) Objective(weights []float64) float64 {
	sum := 0.0
	for l, r := range a.RateBits {
		sum += weights[l] * r
	}
	return sum
}

// Scheduler is a solver for S1.
type Scheduler interface {
	Schedule(req *Request) (*Assignment, error)
}

// ErrRequest reports an invalid scheduling request.
var ErrRequest = errors.New("sched: invalid request")

// Typed solver-outcome sentinels. They classify how a structurally valid
// solve failed, so callers (the controller's degradation path) can branch
// with errors.Is instead of matching message strings. ErrRequest, by
// contrast, is a caller bug and is not a degradation trigger.
var (
	// ErrInfeasible reports that a solve ended infeasible (or otherwise
	// failed to reach an optimum). The all-zeros schedule is always
	// feasible for S1, so organically this indicates numerical trouble.
	ErrInfeasible = errors.New("sched: infeasible")
	// ErrIterationLimit reports that a solve exhausted its iteration
	// budget (Request.MaxLPIterations or the engine safety cap).
	ErrIterationLimit = errors.New("sched: iteration limit")
)

// statusErr maps a non-optimal LP status onto the matching sentinel.
func statusErr(s lp.Status) error {
	if s == lp.IterationLimit {
		return ErrIterationLimit
	}
	return fmt.Errorf("%w (LP status %v)", ErrInfeasible, s)
}

func validate(req *Request) error {
	if req.Net == nil {
		return fmt.Errorf("%w: nil network", ErrRequest)
	}
	if len(req.Widths) != req.Net.Spectrum.NumBands() {
		return fmt.Errorf("%w: %d widths for %d bands", ErrRequest, len(req.Widths), req.Net.Spectrum.NumBands())
	}
	if len(req.Weights) != len(req.Net.Links) {
		return fmt.Errorf("%w: %d weights for %d links", ErrRequest, len(req.Weights), len(req.Net.Links))
	}
	return nil
}

// pair is one candidate (link, band) decision variable.
type pair struct {
	link, band int
	weight     float64 // H_ij * c_ij^m
}

// enumeratePairs lists the positive-weight (link, band) variables.
func enumeratePairs(req *Request) []pair {
	pairs := make([]pair, 0, len(req.Net.Links))
	for l, link := range req.Net.Links {
		if req.Weights[l] <= 0 {
			continue
		}
		if req.maxPower(link.From) <= 0 {
			continue
		}
		for _, b := range link.Bands {
			rate := req.Net.Radio.Capacity(req.Widths[b])
			if rate <= 0 {
				continue
			}
			// Screen: the link must close interference-free at the cap.
			s := req.Net.Radio.InterferenceFreeSINR(
				req.Net.Gains[link.From][link.To], req.maxPower(link.From), req.Widths[b])
			if s < req.Net.Radio.SINRThreshold {
				continue
			}
			pairs = append(pairs, pair{link: l, band: b, weight: req.Weights[l] * rate})
		}
	}
	return pairs
}

// buildLP constructs the LP relaxation of S1 over the given pairs:
//
//	max  Σ weight_p · α_p
//	s.t. node-radio rows (22) and big-M SINR rows (24), 0 ≤ α ≤ 1.
func buildLP(req *Request, pairs []pair) (*lp.Problem, []lp.VarID) {
	net := req.Net
	p := lp.NewProblem(lp.Maximize)
	p.SetIterationLimit(req.MaxLPIterations)
	ids := make([]lp.VarID, len(pairs))
	for k, pr := range pairs {
		link := net.Links[pr.link]
		ids[k] = p.AddVar(fmt.Sprintf("a_%d_%d_b%d", link.From, link.To, pr.band), 0, 1, pr.weight)
	}

	// (22): per node, at most Radios(i) activities across all bands and
	// partners (the paper's single-radio rule generalized). Rows are added
	// in node order so the LP is built deterministically (map iteration
	// would randomize row order and hence tie-breaking).
	byNode := make([][]lp.Term, net.NumNodes())
	for k, pr := range pairs {
		link := net.Links[pr.link]
		byNode[link.From] = append(byNode[link.From], lp.Term{Var: ids[k], Coef: 1})
		byNode[link.To] = append(byNode[link.To], lp.Term{Var: ids[k], Coef: 1})
	}
	for node, terms := range byNode {
		if len(terms) > net.Radios(node) {
			p.AddConstraint(fmt.Sprintf("radio_%d", node), lp.LE, float64(net.Radios(node)), terms...)
		}
	}
	// A link occupies one band at a time even with several radios.
	byLink := make([][]lp.Term, len(net.Links))
	for k, pr := range pairs {
		byLink[pr.link] = append(byLink[pr.link], lp.Term{Var: ids[k], Coef: 1})
	}
	for l, terms := range byLink {
		if len(terms) > 1 {
			p.AddConstraint(fmt.Sprintf("oneband_%d", l), lp.LE, 1, terms...)
		}
	}
	// (20)/(21): a node engages a given band at most once (no two
	// same-band transmissions from one node, no same-band transmit+receive)
	// even when it has several radios. For a single radio (22) implies
	// this; with R > 1 it is an independent constraint.
	nBands := net.Spectrum.NumBands()
	byNodeBand := make([][]lp.Term, net.NumNodes()*nBands)
	for k, pr := range pairs {
		link := net.Links[pr.link]
		byNodeBand[link.From*nBands+pr.band] = append(byNodeBand[link.From*nBands+pr.band], lp.Term{Var: ids[k], Coef: 1})
		byNodeBand[link.To*nBands+pr.band] = append(byNodeBand[link.To*nBands+pr.band], lp.Term{Var: ids[k], Coef: 1})
	}
	for nb, terms := range byNodeBand {
		if len(terms) > 1 && net.Radios(nb/nBands) > 1 {
			p.AddConstraint(fmt.Sprintf("nodeband_%d", nb), lp.LE, 1, terms...)
		}
	}

	// (24): big-M SINR rows, one per pair, interference summed over other
	// pairs on the same band whose transmitter differs.
	gamma := net.Radio.SINRThreshold
	eta := net.Radio.NoiseDensity
	for k, pr := range pairs {
		link := net.Links[pr.link]
		w := req.Widths[pr.band]
		noise := eta * w
		// M_ij^m = Γ(ηW + Σ_{k≠i} g_kj P_k^max).
		bigM := noise
		for other := range net.Nodes {
			if other == link.From {
				continue
			}
			bigM += net.Gains[other][link.To] * req.maxPower(other)
		}
		bigM *= gamma

		gP := net.Gains[link.From][link.To] * req.maxPower(link.From)
		// Normalize the row to O(1): gains are ~1e-9..1e-12 while objective
		// weights reach ~1e7, and unscaled rows would drop below the
		// simplex tolerances and be silently ignored.
		rhs := bigM - gamma*noise
		scale := 1.0
		if rhs > 0 {
			scale = 1 / rhs
		}
		//lint:allow hotalloc -- not scratch: AddConstraint retains each SINR row's term slice
		terms := []lp.Term{{Var: ids[k], Coef: (bigM - gP) * scale}}
		for k2, pr2 := range pairs {
			if k2 == k || pr2.band != pr.band {
				continue
			}
			tx := net.Links[pr2.link].From
			if tx == link.From {
				continue
			}
			coef := gamma * net.Gains[tx][link.To] * req.maxPower(tx)
			if coef == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: ids[k2], Coef: coef * scale})
		}
		p.AddConstraint(fmt.Sprintf("sinr_%d", k), lp.LE, rhs*scale, terms...)
	}
	return p, ids
}

// finalize turns a chosen set of (link, band) activations into an
// Assignment: per band, powers are minimized by iterative power control;
// if a band's set is infeasible even at the caps, the lowest-weight link is
// dropped and control retried.
func finalize(req *Request, pairs []pair, chosen []bool) *Assignment {
	net := req.Net
	asg := &Assignment{
		LinkBand: make([]int, len(net.Links)),
		PowerW:   make([]float64, len(net.Links)),
		RateBits: make([]float64, len(net.Links)),
		Activity: make([]float64, len(net.Links)),
	}
	for l := range asg.LinkBand {
		asg.LinkBand[l] = -1
	}

	type active struct {
		link   int
		weight float64
	}
	perBand := make([][]active, net.Spectrum.NumBands())
	for k, pr := range pairs {
		if chosen[k] {
			perBand[pr.band] = append(perBand[pr.band], active{link: pr.link, weight: pr.weight})
		}
	}

	txs := make([]radio.Transmission, 0, len(pairs))
	caps := make([]float64, 0, len(pairs))
	for band, acts := range perBand {
		if len(acts) == 0 {
			continue
		}
		// Sort descending by weight so drops remove the least valuable.
		// The comparator takes its operands as parameters so the per-band
		// loop allocates no capturing closure (hotalloc).
		slices.SortFunc(acts, func(x, y active) int { return cmp.Compare(y.weight, x.weight) })
		for len(acts) > 0 {
			txs, caps = txs[:0], caps[:0]
			for _, a := range acts {
				link := net.Links[a.link]
				txs = append(txs, radio.Transmission{From: link.From, To: link.To})
				caps = append(caps, req.maxPower(link.From))
			}
			powers, ok := net.Radio.ControlPowers(net.Gains, txs, req.Widths[band], caps)
			if ok {
				rate := net.Radio.Capacity(req.Widths[band])
				for i, a := range acts {
					asg.LinkBand[a.link] = band
					asg.PowerW[a.link] = powers[i]
					asg.RateBits[a.link] = rate
					asg.Activity[a.link] = 1
				}
				break
			}
			acts = acts[:len(acts)-1] // drop the lowest weight and retry
		}
	}
	return asg
}

// SequentialFix is the paper's SF heuristic (Section IV-C1).
type SequentialFix struct{}

var _ Scheduler = SequentialFix{}

// Schedule implements Scheduler.
func (SequentialFix) Schedule(req *Request) (*Assignment, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	pairs := enumeratePairs(req)
	if len(pairs) == 0 {
		return finalize(req, nil, nil), nil
	}
	prob, ids := buildLP(req, pairs)
	chosen := make([]bool, len(pairs))
	fixedZero := make([]bool, len(pairs))
	var stats SolveStats

	// nodeBusy counts the radio slots claimed by fixed-to-one pairs;
	// constraint (22) forces pairs touching exhausted nodes to zero.
	// linkUsed marks links already assigned a band.
	nodeBusy := make([]int, req.Net.NumNodes())
	linkUsed := make([]bool, len(req.Net.Links))

	// compatible reports whether adding pair k keeps its band SINR-feasible
	// at the power caps together with the pairs already fixed to one —
	// i.e. whether the big-M rows (24) admit the extended schedule. Fixing
	// only compatible pairs keeps every intermediate LP feasible.
	compatible := func(k int) bool {
		txs := make([]radio.Transmission, 0, len(pairs)+1)
		for k2 := range pairs {
			if chosen[k2] && pairs[k2].band == pairs[k].band {
				link := req.Net.Links[pairs[k2].link]
				txs = append(txs, radio.Transmission{
					From: link.From, To: link.To, Power: req.maxPower(link.From),
				})
			}
		}
		if len(txs) == 0 {
			return true
		}
		link := req.Net.Links[pairs[k].link]
		txs = append(txs, radio.Transmission{
			From: link.From, To: link.To, Power: req.maxPower(link.From),
		})
		return req.Net.Radio.AllMeetThreshold(req.Net.Gains, txs, req.Widths[pairs[k].band])
	}

	exhausted := func(node int) bool { return nodeBusy[node] >= req.Net.Radios(node) }
	nBands := req.Net.Spectrum.NumBands()
	nodeBandUsed := make([]bool, req.Net.NumNodes()*nBands)
	blocked := func(k int) bool {
		link := req.Net.Links[pairs[k].link]
		return exhausted(link.From) || exhausted(link.To) || linkUsed[pairs[k].link] ||
			nodeBandUsed[link.From*nBands+pairs[k].band] ||
			nodeBandUsed[link.To*nBands+pairs[k].band]
	}
	fixOne := func(k int) {
		chosen[k] = true
		prob.SetVarBounds(ids[k], 1, 1)
		linkUsed[pairs[k].link] = true
		from := req.Net.Links[pairs[k].link].From
		to := req.Net.Links[pairs[k].link].To
		nodeBusy[from]++
		nodeBusy[to]++
		nodeBandUsed[from*nBands+pairs[k].band] = true
		nodeBandUsed[to*nBands+pairs[k].band] = true
		for k2 := range pairs {
			if chosen[k2] || fixedZero[k2] {
				continue
			}
			if blocked(k2) {
				fixedZero[k2] = true
				prob.SetVarBounds(ids[k2], 0, 0)
			}
		}
	}

	for {
		remaining := 0
		for k := range pairs {
			if !chosen[k] && !fixedZero[k] {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		sol, err := prob.Solve()
		if err != nil {
			return nil, fmt.Errorf("sched: sequential-fix LP: %w", err)
		}
		stats.LPSolves++
		stats.LPIterations += sol.Iterations
		if sol.Status != lp.Optimal {
			// The pinned partial schedule plus all-zeros is always feasible,
			// so anything else is a solver failure worth surfacing.
			return nil, fmt.Errorf("sequential-fix: %w", statusErr(sol.Status))
		}

		const tol = 1e-6
		progressed := false
		// Fix every variable the LP already set to one.
		for k := range pairs {
			if chosen[k] || fixedZero[k] {
				continue
			}
			if sol.Value(ids[k]) >= 1-tol {
				// Guard: a concurrent fix this round may have claimed the
				// node or broken band feasibility already.
				if blocked(k) || !compatible(k) {
					fixedZero[k] = true
					prob.SetVarBounds(ids[k], 0, 0)
					continue
				}
				fixOne(k)
				progressed = true
			}
		}
		// Fix the largest remaining fractional to one.
		bestK, bestV := -1, tol
		for k := range pairs {
			if chosen[k] || fixedZero[k] {
				continue
			}
			if v := sol.Value(ids[k]); v > bestV {
				bestK, bestV = k, v
			}
		}
		if bestK >= 0 {
			if compatible(bestK) {
				fixOne(bestK)
			} else {
				fixedZero[bestK] = true
				prob.SetVarBounds(ids[bestK], 0, 0)
			}
			progressed = true
		}
		if !progressed {
			// Everything left is ~0 in the LP: fix the rest to zero.
			for k := range pairs {
				if !chosen[k] && !fixedZero[k] {
					fixedZero[k] = true
					prob.SetVarBounds(ids[k], 0, 0)
				}
			}
		}
	}
	asg := finalize(req, pairs, chosen)
	asg.Stats = stats
	return asg, nil
}

// Greedy inserts (link, band) pairs in descending weight order, keeping an
// insertion only if the whole band stays SINR-feasible at the power caps.
type Greedy struct{}

var _ Scheduler = Greedy{}

// Schedule implements Scheduler.
func (Greedy) Schedule(req *Request) (*Assignment, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	pairs := enumeratePairs(req)
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pairs[order[a]].weight > pairs[order[b]].weight })

	net := req.Net
	nodeBusy := make([]int, net.NumNodes())
	linkUsed := make([]bool, len(net.Links))
	chosen := make([]bool, len(pairs))
	perBand := make(map[int][]radio.Transmission)
	perBandCaps := make(map[int][]float64)
	perBandKs := make(map[int][]int)

	nBands := net.Spectrum.NumBands()
	nodeBandUsed := make([]bool, net.NumNodes()*nBands)
	for _, k := range order {
		pr := pairs[k]
		link := net.Links[pr.link]
		if nodeBusy[link.From] >= net.Radios(link.From) ||
			nodeBusy[link.To] >= net.Radios(link.To) || linkUsed[pr.link] ||
			nodeBandUsed[link.From*nBands+pr.band] || nodeBandUsed[link.To*nBands+pr.band] {
			continue
		}
		txs := append(append([]radio.Transmission(nil), perBand[pr.band]...),
			radio.Transmission{From: link.From, To: link.To})
		caps := append(append([]float64(nil), perBandCaps[pr.band]...), req.maxPower(link.From))
		// Feasible iff every active link on the band meets Γ with all
		// transmitters at their caps (paper constraint (24)).
		for i := range txs {
			txs[i].Power = caps[i]
		}
		if !net.Radio.AllMeetThreshold(net.Gains, txs, req.Widths[pr.band]) {
			continue
		}
		perBand[pr.band] = txs
		perBandCaps[pr.band] = caps
		perBandKs[pr.band] = append(perBandKs[pr.band], k)
		nodeBusy[link.From]++
		nodeBusy[link.To]++
		linkUsed[pr.link] = true
		nodeBandUsed[link.From*nBands+pr.band] = true
		nodeBandUsed[link.To*nBands+pr.band] = true
		chosen[k] = true
	}
	return finalize(req, pairs, chosen), nil
}

// Exact solves S1 to optimality with branch and bound; intended for small
// instances (tests, ablations).
type Exact struct {
	// MaxNodes caps the search (0 = bip default).
	MaxNodes int
}

var _ Scheduler = Exact{}

// Schedule implements Scheduler.
func (e Exact) Schedule(req *Request) (*Assignment, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	pairs := enumeratePairs(req)
	if len(pairs) == 0 {
		return finalize(req, nil, nil), nil
	}
	prob, ids := buildLP(req, pairs)
	sol, err := bip.Solve(prob, ids, bip.Options{MaxNodes: e.MaxNodes})
	if err != nil {
		return nil, fmt.Errorf("sched: exact: %w", err)
	}
	if sol.Status == bip.Infeasible {
		return nil, fmt.Errorf("exact: %w (all-zeros should be feasible)", ErrInfeasible)
	}
	chosen := make([]bool, len(pairs))
	for k := range pairs {
		if math.Round(sol.Value(ids[k])) == 1 {
			chosen[k] = true
		}
	}
	asg := finalize(req, pairs, chosen)
	asg.Stats = SolveStats{LPSolves: sol.Nodes, LPIterations: sol.LPIterations}
	return asg, nil
}

// Relaxed solves the LP relaxation of S1 once and returns the fractional
// schedule directly — the scheduling stage of the relaxed problem P3̄ that
// produces the paper's lower bound (Theorem 5). Powers are set to the
// optimistic interference-free minimum, keeping the relaxed trajectory's
// energy cost a valid optimistic comparator.
type Relaxed struct{}

var _ Scheduler = Relaxed{}

// Schedule implements Scheduler.
func (Relaxed) Schedule(req *Request) (*Assignment, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	net := req.Net
	asg := &Assignment{
		LinkBand: make([]int, len(net.Links)),
		PowerW:   make([]float64, len(net.Links)),
		RateBits: make([]float64, len(net.Links)),
		Activity: make([]float64, len(net.Links)),
	}
	for l := range asg.LinkBand {
		asg.LinkBand[l] = -1
	}
	pairs := enumeratePairs(req)
	if len(pairs) == 0 {
		return asg, nil
	}
	prob, ids := buildLP(req, pairs)
	sol, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("sched: relaxed LP: %w", err)
	}
	asg.Stats.LPSolves = 1
	asg.Stats.LPIterations = sol.Iterations
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("relaxed: %w", statusErr(sol.Status))
	}
	gamma := net.Radio.SINRThreshold
	eta := net.Radio.NoiseDensity
	for k, pr := range pairs {
		a := sol.Value(ids[k])
		if a <= 1e-9 {
			continue
		}
		link := net.Links[pr.link]
		rate := net.Radio.Capacity(req.Widths[pr.band])
		// Optimistic minimal power: meet Γ against noise alone.
		pMin := gamma * eta * req.Widths[pr.band] / net.Gains[link.From][link.To]
		if cap := req.maxPower(link.From); pMin > cap {
			pMin = cap
		}
		asg.RateBits[pr.link] += a * rate
		asg.PowerW[pr.link] += a * pMin
		asg.Activity[pr.link] += a
	}
	for l := range asg.Activity {
		if asg.Activity[l] > 1 {
			asg.Activity[l] = 1
		}
	}
	return asg, nil
}
