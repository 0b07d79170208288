package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm/tcptransport"
)

// TestMain lets the induce-tcp workload re-execute the test binary as its
// rank workers.
func TestMain(m *testing.M) {
	if tcptransport.IsWorker() {
		if err := tcpWorker(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON holds the metric catalogue the binary
// emits equal to the one BENCHMARK.json declares, units included.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []metricSpec
	largest := ""
	bound := 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound > bound {
			largest, bound = m.Name, m.Bound
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end %v, catalogue %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer %v, catalogue %v", layer, perLayer)
	}
	if largest != "setup_s" {
		t.Errorf("setup_s must have the largest bound; %s has %g", largest, bound)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the binary has %d", names, len(workloads))
	}
}

// tinyRun runs a workload at a hundredth of its size and returns the
// report and the parsed result line.
func tinyRun(t *testing.T, name string, traced, corrupt bool) (*report, map[string]metric, string) {
	t.Helper()
	dir := t.TempDir()
	// serve runs long enough for every open-loop phase to carry an upload.
	seconds := 0.4
	if name == "serve" {
		seconds = 3
	}
	cfg := config{workload: name, seed: 3, seconds: seconds, trace: traced, scale: 0.01, outDir: dir, corruptOracle: corrupt}
	var out bytes.Buffer
	r, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	if res.Correct != r.correct() || res.Attempted != r.attempted || res.Failed != r.failed {
		t.Errorf("%s: result line %+v disagrees with the report", name, res)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", name, res.Attempted)
	}
	return r, res.Metrics, dir
}

// zeroWhenCorrect reports whether a per-layer metric of an exercised layer
// may read 0 on correct code.
func zeroWhenCorrect(name string) bool {
	// The server sheds no request at these rates, and each split mode
	// calls only some kinds of collective.
	return name == "serve.sheds" || strings.HasPrefix(name, "comm.calls.")
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and checks that each metric of BENCHMARK.json is emitted with
// its unit, that the metrics of the layers a workload exercises are
// non-zero and those of its idle layers 0, that the outputs pass their
// checks and that the traced run's Chrome trace parses.
func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			r, metrics, dir := tinyRun(t, name, traced, false)
			if !r.correct() {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", name, traced, r.failed, r.attempted, r.failures)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, s.name, m, s.unit)
				}
				switch zero := traced && isIdle(s.name, idle[name]); {
				case zero && m.Value != 0:
					t.Errorf("%s: metric %s of an idle layer is %g, want 0", name, s.name, m.Value)
				case !zero && m.Value == 0 && !zeroWhenCorrect(s.name):
					t.Errorf("%s trace=%v: metric %s is 0", name, traced, s.name)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			var ct struct {
				TraceEvents []struct{ Pid int } `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &ct); err != nil {
				t.Fatalf("%s: chrome trace: %v", name, err)
			}
			pids := map[int]bool{}
			for _, e := range ct.TraceEvents {
				pids[e.Pid] = true
			}
			if name == "induce-tcp" && !(pids[0] && pids[1] && pids[2]) {
				t.Errorf("induce-tcp trace has process tracks %v, want the benchmark's and both ranks'", pids)
			}
		}
	}
}

// TestWrongOracleIsCounted feeds every workload one wrong oracle label and
// requires the checks to count it.
func TestWrongOracleIsCounted(t *testing.T) {
	for name := range workloads {
		r, _, _ := tinyRun(t, name, false, true)
		if r.correct() || r.failed < 1 {
			t.Errorf("%s: a wrong oracle label went unnoticed (%d failed of %d)", name, r.failed, r.attempted)
		}
	}
}
