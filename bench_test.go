// Benchmarks that regenerate each panel of the paper's Figure 2. Every
// benchmark runs the corresponding experiment end to end (at a reduced
// horizon so iterations stay in the seconds range; cmd/figures regenerates
// the full paper-scale series) and reports the panel's headline quantity as
// a custom metric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report:
//
//	Fig2a: bound-gap-ratio-V1e5 / -V1e6  (gap shrinks as V grows)
//	Fig2b/c: final data backlogs, bounded (strong stability)
//	Fig2d/e: final energy buffers, growing but capped
//	Fig2f: cost ratios of the three baselines over the proposed system
package greencell_test

import (
	"testing"

	"greencell"
	"greencell/internal/core"
)

// benchScenario is the paper scenario at a horizon that keeps a single
// benchmark iteration in the tens-of-milliseconds range, on the default
// solver path every run takes.
func benchScenario() greencell.Scenario {
	sc := greencell.PaperScenario()
	sc.Slots = 40
	sc.KeepTraces = true
	return sc
}

// BenchmarkFig2aBounds reproduces Fig. 2(a): the Theorem 4/5 upper/lower
// bounds on the optimal energy cost, and their tightening in V.
func BenchmarkFig2aBounds(b *testing.B) {
	sc := benchScenario()
	var gapSmall, gapLarge float64
	for i := 0; i < b.N; i++ {
		lo, err := greencell.BoundsAt(sc, 1e5)
		if err != nil {
			b.Fatal(err)
		}
		hi, err := greencell.BoundsAt(sc, 1e6)
		if err != nil {
			b.Fatal(err)
		}
		gapSmall = lo.Upper - lo.Lower
		gapLarge = hi.Upper - hi.Lower
	}
	b.ReportMetric(gapSmall, "gap-V1e5")
	b.ReportMetric(gapLarge, "gap-V1e6")
	b.ReportMetric(gapLarge/gapSmall, "gap-shrink-ratio")
}

// BenchmarkFig2bDataBacklogBS reproduces Fig. 2(b): the total base-station
// data queue backlog over time under the proposed algorithm.
func BenchmarkFig2bDataBacklogBS(b *testing.B) {
	sc := benchScenario()
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := greencell.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalDataBacklogBS
	}
	b.ReportMetric(final, "final-backlog-pkts")
}

// BenchmarkFig2cDataBacklogUsers reproduces Fig. 2(c): the total mobile-user
// data queue backlog over time.
func BenchmarkFig2cDataBacklogUsers(b *testing.B) {
	sc := benchScenario()
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := greencell.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalDataBacklogUsers
	}
	b.ReportMetric(final, "final-backlog-pkts")
}

// BenchmarkFig2dEnergyBufferBS reproduces Fig. 2(d): the total base-station
// energy buffer (battery) level over time.
func BenchmarkFig2dEnergyBufferBS(b *testing.B) {
	sc := benchScenario()
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := greencell.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalBatteryWhBS.Wh()
	}
	b.ReportMetric(final, "final-buffer-Wh")
}

// BenchmarkFig2eEnergyBufferUsers reproduces Fig. 2(e): the total mobile-user
// energy buffer level over time.
func BenchmarkFig2eEnergyBufferUsers(b *testing.B) {
	sc := benchScenario()
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := greencell.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		final = res.FinalBatteryWhUsers.Wh()
	}
	b.ReportMetric(final, "final-buffer-Wh")
}

// BenchmarkSlotLPWork runs the paper scenario (SequentialFix S1 plus S4)
// and, besides ns/op, reports the LP work per slot — solves and simplex
// iterations across S1 and S4 — which is what BENCH_*.json tracks across
// PRs (docs/PERFORMANCE.md). The work counts are exact, so a change in
// them means the solver took a different path.
func BenchmarkSlotLPWork(b *testing.B) {
	var iters, solves, slots int
	for i := 0; i < b.N; i++ {
		sc := benchScenario()
		sc.KeepTraces = false
		sc.Instrument = true
		sc.SlotHook = func(sr *core.SlotResult) {
			slots++
			if st := sr.Stages; st != nil {
				solves += st.SchedLPSolves + st.S4LPSolves
				iters += st.SchedLPIterations + st.S4LPIterations
			}
		}
		if _, err := greencell.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
	if slots > 0 {
		b.ReportMetric(float64(iters)/float64(slots), "lp-iters/slot")
		b.ReportMetric(float64(solves)/float64(slots), "lp-solves/slot")
	}
}

// BenchmarkFig2fArchitectures reproduces Fig. 2(f): the time-averaged energy
// cost of the four architectures. The reported metrics are each baseline's
// cost relative to the proposed system (all should exceed 1).
func BenchmarkFig2fArchitectures(b *testing.B) {
	sc := benchScenario()
	sc.KeepTraces = false
	byArch := map[greencell.Architecture]float64{}
	for i := 0; i < b.N; i++ {
		costs, err := greencell.CompareArchitectures(sc, []float64{1e5})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range costs {
			byArch[c.Architecture] = c.AvgCost.Value()
		}
	}
	base := byArch[greencell.Proposed]
	if base > 0 {
		b.ReportMetric(byArch[greencell.MultiHopNoRenewable]/base, "multihop-nr-x")
		b.ReportMetric(byArch[greencell.OneHopRenewable]/base, "onehop-r-x")
		b.ReportMetric(byArch[greencell.OneHopNoRenewable]/base, "onehop-nr-x")
	}
}
