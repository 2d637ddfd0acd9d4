package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, for every workload.
// Workflow workloads time operations in simulated (paper-scale) time; the
// wire workloads in wall-clock time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"get_p50_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"throughput_ops_s", "1/s"},
	{"rss_peak_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, for every workload; a layer
// the workload does not run reports 0. Metrics of the workflow workload
// that differ by strategy carry the strategy's name as a suffix.
var perLayer = append([]metricDef{
	// rpc: the client call, the server, the Go runtime under it and the
	// load generator.
	{"rpc.call_get_p50_us", "us"},
	{"rpc.call_put_p50_us", "us"},
	{"rpc.self_us_per_op", "us"},
	{"rpc.get_p99_ms", "ms"},
	{"rpc.put_p99_ms", "ms"},
	{"rpc.server_requests", "count"},
	{"rpc.server_abandoned", "count"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	// limits
	{"limits.admitted", "count"},
	{"limits.rejected", "count"},
	// registry: Router and Instance
	{"registry.router_self_us_per_op", "us"},
	{"registry.instance_self_us_per_op", "us"},
	{"registry.hedged_read_ratio", "ratio"},
	{"registry.hedge_win_ratio", "ratio"},
	{"registry.cas_conflict_ratio", "ratio"},
	// store: the write-ahead log
	{"store.syncs_per_write", "count"},
	{"store.appends_per_write", "count"},
	{"store.snapshots", "count"},
	{"store.disk_bytes_per_live_byte", "ratio"},
	// memcache: the cache tier under each instance
	{"memcache.get_us", "us"},
	{"memcache.put_us", "us"},
	// feed
	{"feed.delivery_p50_ms", "ms"},
	{"feed.delivery_p99_ms", "ms"},
	{"feed.events", "count"},
	{"feed.snapshot_fallbacks", "count"},
	// readcache
	{"readcache.hit_ratio", "ratio"},
	{"readcache.origin_gets_per_get", "ratio"},
	{"readcache.self_us_per_get", "us"},
	{"readcache.invalidations", "count"},
	{"readcache.evictions", "count"},
	{"readcache.flushes", "count"},
	// core: strategy machinery of the workflow workload
	{"core.dr_local_hit_ratio", "ratio"},
	{"core.propagator_flushes", "count"},
	{"core.propagator_mean_batch", "count"},
	{"core.propagator_requeued", "count"},
	{"core.sync_rounds", "count"},
	// latency: modelled time apart from real CPU time
	{"latency.slept_s", "s"},
	{"latency.oversleep_ratio", "ratio"},
	{"proc.cpu_util", "cores"},
	// the tracing itself
	{"trace.spans", "count"},
	{"trace.cpu_overhead_ratio", "ratio"},
	{"trace.latency_overhead_ratio", "ratio"},
}, perStrategy()...)

// perStrategy lists the workflow metrics reported once per strategy.
func perStrategy() []metricDef {
	var out []metricDef
	for _, s := range []string{"centralized", "replicated", "decentralized", "hybrid"} {
		for _, m := range []metricDef{
			{"core.create_p50_ms", "sim_ms"},
			{"core.lookup_p50_ms", "sim_ms"},
			{"core.remote_op_ratio", "ratio"},
			{"memcache.slot_wait_p99_ms", "sim_ms"},
			{"workflow.makespan_s", "sim_s"},
			{"workflow.retries_per_read", "ratio"},
			{"workflow.node_busy_frac", "ratio"},
			{"latency.modelled_s", "sim_s"},
			{"latency.messages", "count"},
		} {
			out = append(out, metricDef{m.name + "." + s, m.unit})
		}
	}
	return out
}

// results is what one run reports.
type results struct {
	attempted, failed int
	values            map[string]float64
	// notes are extra human-readable lines: tails with their percentile
	// and sample count, failure ratio, modelled against real time.
	notes []string
}

func newResults() *results { return &results{values: make(map[string]float64)} }

func (r *results) set(name string, v float64) { r.values[name] = v }

func (r *results) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable report, then the result object on the
// last line: the metrics of defs, each present (0 when the workload does
// not reach that layer).
func (r *results) write(w io.Writer, workload string, defs []metricDef, correct bool) error {
	fmt.Fprintf(w, "== %s ==\n", workload)
	out := output{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, v, d.unit)
	}
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  fail_ratio %.6f (%d failed of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
