package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// clock reads the wall clock for every timing the benchmark takes.
func clock() time.Time {
	//lint:allow wallclock -- the benchmark times the program from outside; no reading reaches a program artifact
	return time.Now()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// nsToMS converts nanosecond samples to milliseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// permutation returns pool seeds 1..n in the order the workload seed
// draws: a Fisher-Yates shuffle driven by splitmix64. The generator is the
// benchmark's own, so the program sees only the resulting scenario seeds.
func permutation(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	x := uint64(seed)
	for i := n - 1; i > 0; i-- {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// medianSeconds returns the median of set-up durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports: bytes allocated, GC cycles and CPU time split.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// add accumulates the counters' growth from before to after.
func (s *runtimeSample) add(before, after runtimeSample) {
	s.allocBytes += after.allocBytes - before.allocBytes
	s.gcCycles += after.gcCycles - before.gcCycles
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
}

// readRuntime reads the runtime counters into a caller-owned sample
// buffer, so a reading allocates nothing.
func readRuntime(buf []metrics.Sample) runtimeSample {
	metrics.Read(buf)
	return runtimeSample{
		allocBytes: buf[0].Value.Uint64(),
		gcCycles:   buf[1].Value.Uint64(),
		gcCPU:      buf[2].Value.Float64(),
		totalCPU:   buf[3].Value.Float64(),
	}
}

func newRuntimeBuf() []metrics.Sample {
	buf := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		buf[i].Name = n
	}
	return buf
}
