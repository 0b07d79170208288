package main

import (
	"fmt"
	"strings"
)

// metricSpec is one metric's name and unit, as BENCHMARK.json lists it
// (the self-test holds the two lists equal).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, untraced. README.md gives each one's definition per
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rows_per_cpu_s", "rows/cpu-s"},
	{"latency_ms", "ms"},
	{"predict_rows_per_cpu_s", "rows/cpu-s"},
	{"accuracy", "fraction"},
	{"modeled_s", "s"},
	{"comm_mb", "MB"},
}

// perLayer are the traced run's metrics, named <layer>.<figure>. A layer
// the workload does not exercise reports 0 (README.md says which).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"datagen.gen_s", "s"},
		{"psort.sort_s", "s"},
		{"psort.modeled_share", "fraction"},
		{"gini.scan_ns_per_entry", "ns"},
		{"histogram.binof_ns_per_value", "ns"},
		{"dataset.gather_s", "s"},
		{"nodetable.update_ns_per_record", "ns"},
		{"nodetable.lookup_ns_per_record", "ns"},
	}
	for _, ph := range []string{"Sort", "FindSplitI", "FindSplitII", "PerformSplitI", "PerformSplitII"} {
		m = append(m, metricSpec{"comm." + ph + ".modeled_s", "s"}, metricSpec{"comm." + ph + ".mb", "MB"})
	}
	for _, op := range commCalls {
		m = append(m, metricSpec{"comm.calls." + op, "count"})
	}
	return append(m, []metricSpec{
		{"tcptransport.exchange_calls", "count"},
		{"tcptransport.exchange_s", "s"},
		{"tcptransport.send_recv_s", "s"},
		{"tcptransport.frame_mb", "MB"},
		{"tcptransport.spawn_s", "s"},
		{"scalparc.train_s", "s"},
		{"scalparc.levels", "count"},
		{"scalparc.tree_nodes", "count"},
		{"scalparc.speedup", "x"},
		{"scalparc.peak_rank_mb", "MB"},
		{"infer.compile_ms", "ms"},
		{"infer.table_ns_per_row", "ns"},
		{"infer.rows_ns_per_row.b8", "ns"},
		{"tree.decode_ms", "ms"},
		{"serve.p50_ms.high", "ms"},
		{"serve.p90_ms.low", "ms"},
		{"serve.p90_ms.high", "ms"},
		{"serve.p99_ms.low", "ms"},
		{"serve.p99_ms.high", "ms"},
		{"serve.samples.low", "count"},
		{"serve.samples.high", "count"},
		{"serve.deadline_flush_frac.low", "fraction"},
		{"serve.deadline_flush_frac.high", "fraction"},
		{"serve.mean_batch_rows.low", "rows"},
		{"serve.mean_batch_rows.high", "rows"},
		{"serve.sheds", "count"},
		{"serve.gen_lag_ms", "ms"},
		{"serve.swap_ms", "ms"},
		{"serve.rows_per_s", "rows/s"},
		{"cache.swaps", "count"},
		{"process.rss_peak_mb", "MB"},
		{"bench.trace_overhead_frac", "fraction"},
	}...)
}()

// commCalls names the collective kinds counted from comm.Stats.
var commCalls = []string{"alltoall", "allreduce", "scan", "allgather", "reduce", "reducescatter", "bcast", "gather", "barrier", "p2p"}

// idle names, per workload, the per-layer metrics (by prefix) of the
// layers the workload does not exercise, which report 0.
var idle = map[string][]string{
	"induce-tcp": {"serve.", "cache."},
	"serve":      {"tcptransport.", "scalparc.speedup"},
}

// isIdle reports whether name matches one of the prefixes.
func isIdle(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// complete checks a run's metrics against a catalogue: every metric set
// must be catalogued with the same unit, and every catalogued metric set,
// except those of idle layers (prefixes in zero), which are filled with 0.
func complete(got map[string]metric, specs []metricSpec, zero []string) error {
	units := map[string]string{}
	for _, s := range specs {
		units[s.name] = s.unit
	}
	for name, m := range got {
		u, ok := units[name]
		if !ok {
			return fmt.Errorf("metric %q is not catalogued", name)
		}
		if u != m.Unit {
			return fmt.Errorf("metric %q has unit %q, catalogued %q", name, m.Unit, u)
		}
	}
	for _, s := range specs {
		if _, ok := got[s.name]; ok {
			continue
		}
		if !isIdle(s.name, zero) {
			return fmt.Errorf("metric %q was not measured", s.name)
		}
		got[s.name] = metric{0, s.unit}
	}
	return nil
}
