package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary. Start and End
// are nanoseconds since the tracer began; Parent indexes the span that
// caused this one (-1 for a root); Run is shared by one job's spans.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Run    string           `json:"run"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the fleet's handler wrappers record from server
// goroutines.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: clock(), spans: make([]span, 0, 1<<14)}
}

// since converts a wall instant to tracer nanoseconds.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) now() int64 { return t.since(clock()) }

// add records a span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// setParent links an already recorded span to its parent.
func (t *tracer) setParent(i, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Parent = parent
}

// setEnd closes a span recorded open.
func (t *tracer) setEnd(i int, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// layerUnits is the per-layer metric set every traced run reports, with
// units; a layer a workload does not reach reads 0. Both runners report
// through layerSet, so their metric sets cannot drift apart.
var layerUnits = map[string]string{
	"lp.s1_solves_per_slot":         "count",
	"lp.s1_iters_per_slot":          "count",
	"lp.s4_solves_per_slot":         "count",
	"lp.s4_iters_per_slot":          "count",
	"lp.warm_starts_per_slot":       "count",
	"lp.invalidations_per_slot":     "count",
	"sched.ms_per_slot":             "ms",
	"sched.share":                   "%",
	"energymgmt.ms_per_slot":        "ms",
	"energymgmt.share":              "%",
	"routing.ms_per_slot":           "ms",
	"queueing.ms_per_slot":          "ms",
	"core.step_ms_per_slot":         "ms",
	"core.self_ms_per_slot":         "ms",
	"machine.msgs_per_slot":         "count",
	"machine.ms_per_slot":           "ms",
	"machine.share":                 "%",
	"sim.build_ms":                  "ms",
	"sim.ms_per_slot":               "ms",
	"runtime.gc_cycles_per_slot":    "count",
	"runtime.gc_cpu_share":          "%",
	"server.requests_per_cell":      "count",
	"server.cell_queue_ms_p50":      "ms",
	"server.cell_run_ms_p50":        "ms",
	"server.journal_bytes_per_cell": "B",
	"cluster.dispatches_per_cell":   "count",
	"cluster.polls_per_cell":        "count",
	"cluster.detect_lag_ms_p50":     "ms",
	"cluster.redispatches":          "count",
	"cluster.rpc_retries":           "count",
	"cluster.cache_hit_ratio":       "%",
	"metrics.stream_bytes_per_slot": "B",
	"trace.untraced_slots_per_s":    "1/s",
	"trace.traced_slots_per_s":      "1/s",
	"trace.overhead_pct":            "%",
}

// layerSet fills every per-layer metric, defaulting to 0.
func layerSet(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// overhead fills the tracing-overhead metrics from the two phases.
func overhead(vals map[string]float64, untraced, traced float64) {
	vals["trace.untraced_slots_per_s"] = untraced
	vals["trace.traced_slots_per_s"] = traced
	if untraced > 0 {
		vals["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	}
}

// share returns part as a percentage of whole (0 when whole is 0).
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// perSlot divides a total by the slot count (0 when no slots ran).
func perSlot(total float64, slots int) float64 {
	if slots == 0 {
		return 0
	}
	return total / float64(slots)
}
