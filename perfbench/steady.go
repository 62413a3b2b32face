package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyReport runs the workload n times in fresh processes, with seeds
// 1..n, and prints each metric's median, quartiles, interquartile range
// and (max − min) as shares of the median. An end-to-end metric whose
// interquartile share exceeds its BENCHMARK.json bound is flagged, except
// setup_s, whose spread is not gated; the report exits 1 if any is, or if
// any run fails.
func steadyReport(o options, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
			return 1
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-workdir", o.workDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", seed, err)
			status = 1
			continue
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: bad result (%v)\n", seed, err)
			status = 1
			continue
		}
		var line []string
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.6g", name, m.Value))
		}
		sort.Strings(line)
		fmt.Printf("seed %d: %s\n", seed, strings.Join(line, " "))
	}

	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s, %d runs of %gs, trace %s; %s\n", o.workload, n, o.seconds, trace, hostInfo())
	fmt.Printf("%-32s %6s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "iqr%", "range%", "bound%")
	for _, name := range names {
		xs := values[name]
		q := pyQuartiles(xs)
		lo, hi := minMax(xs)
		iqr, rng := relSpread(q[2]-q[0], q[1]), relSpread(hi-lo, q[1])
		bound, gated := bounds[name]
		flag := ""
		if name == "setup_s" {
			flag = "  (spread not gated)"
		} else if gated && iqr > bound {
			flag = "  EXCEEDS BOUND"
			status = 1
		} else if gated && iqr > bound/3 {
			flag = "  above a third of the bound"
		}
		boundCol := "-"
		if gated {
			boundCol = strconv.FormatFloat(100*bound, 'f', 1, 64)
		}
		fmt.Printf("%-32s %6s %12.6g %12.6g %12.6g %8.2f %8.2f %6s%s\n",
			name, units[name], q[0], q[1], q[2], 100*iqr, 100*rng, boundCol, flag)
	}
	return status
}

// pyQuartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method.
func pyQuartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	if ld == 0 {
		return out
	}
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// relSpread returns spread as a share of the median (0 when the median is).
func relSpread(spread, median float64) float64 {
	if median == 0 {
		return 0
	}
	return math.Abs(spread / median)
}

// hostInfo names the host the report was measured on.
func hostInfo() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, %s, %s", runtime.NumCPU(), model, runtime.Version())
}
