package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// WallClock reports time.Now calls outside the declared instrumentation
// allowlist. The simulation is a deterministic function of (scenario,
// seed); the only legitimate wall-clock reads are the stage timers whose
// values the metrics pipeline already canonicalizes away
// (metrics.CanonicalizeJSONL zeroes every *_ns field). A time.Now anywhere
// else tends to leak nondeterminism into artifacts — report timestamps,
// wall-clock seeds, time-dependent branching — so every new site must
// either live in an allowlisted instrumentation file or carry an explicit
// //lint:allow wallclock justification saying why the value never reaches
// a reproducible artifact. Test files are skipped: the testing package
// owns timing there.
type WallClock struct{}

// WallClockAllowedFiles lists the module-relative files allowed to read
// the wall clock, and why. Keep this list short and the reasons true.
var WallClockAllowedFiles = []string{
	// Slot stage timers; their _ns outputs are canonicalized away.
	"internal/core/controller.go",
	// Scheduler solve timers behind the instrumentation seam.
	"internal/sched/instrument.go",
	// Per-analyzer timing in the lint driver; never reaches artifacts.
	"cmd/greencell-lint/main.go",
	// The job service's clock (server.Now): job lifecycle timestamps for
	// the daemon and the coordinator, plus the coordinator's lease
	// deadlines and breaker cooldowns. They surface only in API status
	// responses and operational decisions; never in the metrics stream,
	// the journal, or the cache key.
	"internal/server/job.go",
}

// Name implements Analyzer.
func (WallClock) Name() string { return "wallclock" }

// Doc implements Analyzer.
func (WallClock) Doc() string {
	return "time.Now outside the instrumentation allowlist (WallClockAllowedFiles)"
}

// Check implements Analyzer.
func (w WallClock) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		fname := filepath.ToSlash(pkg.Fset.Position(file.Pos()).Filename)
		if strings.HasSuffix(fname, "_test.go") || allowedWallClockFile(fname) {
			continue
		}
		ast.Inspect(file, func(node ast.Node) bool {
			sel, ok := node.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || obj.Name() != "Now" {
				return true
			}
			out = append(out, Finding{
				Analyzer: w.Name(),
				Pos:      pkg.Fset.Position(sel.Pos()),
				Message:  "time.Now outside the instrumentation allowlist; thread a timer in or annotate why it never reaches an artifact",
			})
			return true
		})
	}
	return out
}

// allowedWallClockFile reports whether fname (slash-separated) ends with
// one of the allowlisted module-relative paths.
func allowedWallClockFile(fname string) bool {
	for _, allowed := range WallClockAllowedFiles {
		if fname == allowed || strings.HasSuffix(fname, "/"+allowed) {
			return true
		}
	}
	return false
}
