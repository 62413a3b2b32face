// Command perfbench is the repository benchmark: it drives greencell from
// outside, through its public seams (sim.ScenarioSpec, sim.Build,
// sim.RunCtx and the Scenario hooks; the greencelld and coordinator HTTP
// handlers over loopback), checks every output against pinned reference
// values, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 a
// separate traced run reports the per-layer metrics (README.md).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload paper-sf -seed 1 -seconds 20 -trace 0
//	perfbench -steady 10 -workload urban-greedy-dist -seconds 20
//
// and, from perfbench/, `go run . -gen-refs refs.json` re-pins refs.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// options is one run's configuration. The size fields default to the
// benchmark's real sizes; tests shrink them for smoke runs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds temp fleets and span files; it lies inside the
	// checkout the benchmark runs from.
	workDir string

	slots  int // per-seed horizon
	pool   int // library workloads: seeds per pass
	window int // fleet-resweep: seeds per job (W)
	refs   *refTable
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each name to its runner.
var workloads = map[string]func(options) (result, error){
	"paper-sf":          runLibrary,
	"urban-greedy-dist": runLibrary,
	"fleet-resweep":     runFleet,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var steady int
	var genRefs string
	fs.StringVar(&o.workload, "workload", "", "workload name: paper-sf | urban-greedy-dist | fleet-resweep")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for fleets and span files")
	fs.IntVar(&steady, "steady", 0, "repeat the workload this many times (seeds 1..N) and print a steadiness report")
	fs.StringVar(&genRefs, "gen-refs", "", "recompute the pinned reference values into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if genRefs != "" {
		if err := writeRefs(genRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if steady > 0 {
		return steadyReport(o, steady)
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.refs = refs
	o.slots, o.pool, o.window = defaultSizes(o.workload)

	res, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their output checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// defaultSizes returns the real run sizes of a workload: the per-seed
// horizon, the library pass length, and the fleet job window.
func defaultSizes(workload string) (slots, pool, window int) {
	switch workload {
	case "paper-sf":
		return 100, 16, 0
	case "urban-greedy-dist":
		return 100, 72, 0
	default:
		return 100, 0, 16
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes one human-readable line per metric, the failure
// fraction, and then the JSON object as the last line.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(&b, "%-34s %14.6g %s (%d of %d)\n", "failed_frac", frac, "fraction", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
