package lp

import (
	"fmt"
	"math"
	"testing"
)

// certTol is the optimality certificate's tolerance, relative to the
// magnitude of the terms each check sums.
const certTol = 1e-7

// solveCertified solves p and, when the outcome is Optimal, checks the
// solution's optimality certificate (see certify).
func solveCertified(t *testing.T, p *Problem) (*Solution, error) {
	t.Helper()
	sol, err := p.Solve()
	if err == nil && sol.Status == Optimal {
		if cerr := certify(p, sol); cerr != nil {
			t.Fatal(cerr)
		}
	}
	return sol, err
}

// certify checks that sol is an optimal solution of p from the solution
// alone, with no second solver: primal feasibility (every row and every
// bound), dual feasibility (each variable's reduced cost c_j − Σ_i y_i·a_ij
// has the sign its active bound allows, and each row multiplier the sign
// its relation allows), and complementary slackness (a row with a nonzero
// multiplier is tight). The multipliers y are Solution.Dual. Each check
// holds within certTol times the magnitude of the terms it sums. It
// returns the first violation found.
func certify(p *Problem, sol *Solution) error {
	// Work in minimization form: negate costs and multipliers of a
	// maximization so one set of sign rules applies.
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	x := sol.Values()
	y := make([]float64, len(p.cons))
	for i := range y {
		y[i] = sign * sol.Dual(i)
	}

	for j, v := range p.vars {
		lo, hi := math.Min(v.lo, v.hi), math.Max(v.lo, v.hi)
		if x[j] < lo-certTol*(1+math.Abs(lo)) || x[j] > hi+certTol*(1+math.Abs(hi)) {
			return fmt.Errorf("primal: var %d (%s) = %v outside [%v, %v]", j, v.name, x[j], lo, hi)
		}
	}

	// Reduced costs and their magnitudes, accumulated row by row.
	red := make([]float64, len(p.vars))
	mag := make([]float64, len(p.vars))
	for j, v := range p.vars {
		red[j] = sign * v.cost
		mag[j] = math.Abs(v.cost)
	}
	for i, c := range p.cons {
		lhs, lhsMag := 0.0, 0.0
		for _, term := range c.terms {
			lhs += term.Coef * x[term.Var]
			lhsMag += math.Abs(term.Coef * x[term.Var])
			red[term.Var] -= y[i] * term.Coef
			mag[term.Var] += math.Abs(y[i] * term.Coef)
		}
		tol := certTol * (1 + lhsMag + math.Abs(c.rhs))
		slack := c.rhs - lhs
		switch c.rel {
		case LE:
			if slack < -tol {
				return fmt.Errorf("primal: row %d (%s) %v <= %v violated", i, c.name, lhs, c.rhs)
			}
			if y[i] > certTol*(1+math.Abs(y[i])) {
				return fmt.Errorf("dual: <= row %d (%s) has multiplier %v > 0", i, c.name, y[i])
			}
		case GE:
			if slack > tol {
				return fmt.Errorf("primal: row %d (%s) %v >= %v violated", i, c.name, lhs, c.rhs)
			}
			if y[i] < -certTol*(1+math.Abs(y[i])) {
				return fmt.Errorf("dual: >= row %d (%s) has multiplier %v < 0", i, c.name, y[i])
			}
		case EQ:
			if math.Abs(slack) > tol {
				return fmt.Errorf("primal: row %d (%s) %v = %v violated", i, c.name, lhs, c.rhs)
			}
		}
		// Complementary slackness: y_i·slack_i = 0 on every row.
		if math.Abs(y[i]*slack) > certTol*(1+math.Abs(y[i]))*(1+lhsMag+math.Abs(c.rhs)) {
			return fmt.Errorf("slackness: row %d (%s) multiplier %v with slack %v", i, c.name, y[i], slack)
		}
	}

	for j, v := range p.vars {
		lo, hi := math.Min(v.lo, v.hi), math.Max(v.lo, v.hi)
		if hi-lo <= presolveEps {
			continue // fixed: any reduced cost is dual feasible
		}
		tol := certTol * (1 + mag[j])
		atLo := x[j] <= lo+certTol*(1+math.Abs(lo))
		atHi := x[j] >= hi-certTol*(1+math.Abs(hi))
		switch {
		case atLo && red[j] < -tol:
			return fmt.Errorf("dual: var %d (%s) at lower bound with reduced cost %v < 0", j, v.name, red[j])
		case atHi && red[j] > tol:
			return fmt.Errorf("dual: var %d (%s) at upper bound with reduced cost %v > 0", j, v.name, red[j])
		case !atLo && !atHi && math.Abs(red[j]) > tol:
			return fmt.Errorf("dual: var %d (%s) strictly inside its box with reduced cost %v", j, v.name, red[j])
		}
	}
	return nil
}
