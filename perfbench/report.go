package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"syscall"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's operation counts and metrics. Operations are
// counted from several goroutines in the serve workload, so the counters
// are locked.
type report struct {
	w         io.Writer
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	// workerRSSMB is the summed peak resident memory of the worker
	// processes the run started (the TCP workload's ranks).
	workerRSSMB float64
}

func newReport(w io.Writer) *report {
	return &report{w: w, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// op counts one attempted operation and, when err is non-nil, one failure.
// It reports whether the operation succeeded.
func (r *report) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
	return err == nil
}

// check counts one output check.
func (r *report) check(ok bool, format string, args ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	return r.op(err)
}

// set records an end-to-end metric.
func (r *report) set(name, unit string, v float64) { r.e2e[name] = metric{finite(v), unit} }

// setLayer records a per-layer metric.
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{finite(v), unit} }

func (r *report) correct() bool { return r.failed == 0 }

// finish prints every metric by name and unit, then the JSON result line
// carrying the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) of the workload.
func (r *report) finish(workload string, traced bool) error {
	out, specs, zero := r.e2e, endToEnd, []string(nil)
	if traced {
		out, specs, zero = r.layer, perLayer, idle[workload]
	}
	if err := complete(out, specs, zero); err != nil {
		return err
	}
	for _, s := range specs {
		fmt.Fprintf(r.w, "metric %-40s %14.6g %s\n", s.name, out[s.name].Value, s.unit)
	}
	fmt.Fprintf(r.w, "metric %-40s %14.6g fraction\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	for _, f := range r.failures {
		fmt.Fprintln(r.w, "FAILED", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.w, "%s\n", line)
	return err
}

// finite keeps the JSON encodable: a latency percentile that lands on a
// failed request (counted as infinitely late) is reported as 1e9 ms.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// rssPeakMB returns this process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the median of xs (which it sorts), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the mean of xs, 0 for none.
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// quantile returns the q-quantile of xs by nearest rank after sorting xs
// in place; +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
