// Command perfbench is the repository benchmark: one command that generates
// a seeded workload, drives the public entry points of scalparc,
// comm/tcptransport, infer and serve, checks every output, and prints the
// workload's metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with --trace 1 they are the per-layer metrics,
// and every call the benchmark makes into a layer is wrapped in a span that
// ends up in a Chrome trace under .bench_build/traces. README.md lists the
// workloads, the metrics and what each one is expected to move.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload induce-tcp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/comm/tcptransport"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every input size; 1 is the benchmark, the self-test
	// runs tiny sizes.
	scale float64
	// outDir receives the Chrome traces of traced runs.
	outDir string
	// corruptOracle flips one expected label before the checks run, so the
	// self-test can prove that a wrong output is counted as failed.
	corruptOracle bool
}

// workloads maps each workload name to the function that runs it, which
// fills the report: operations attempted and failed, and the metrics.
var workloads = map[string]func(cfg config, r *report, tr *tracer) error{
	"induce-tcp": runInduceTCP,
	"serve":      runServe,
}

func main() {
	if tcptransport.IsWorker() {
		if err := tcpWorker(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{scale: 1, outDir: filepath.Join(".bench_build", "traces")}
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: induce-tcp or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	r, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// run executes one workload, prints its human-readable lines and, last, the
// JSON result line. An error means the run could not produce a result at
// all; a failed output check is counted in the report instead.
func run(cfg config, w io.Writer) (*report, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	h := probeHost()
	hostLine, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "host %s\n", hostLine)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	r := newReport(w)
	tr := newTracer(cfg.trace)
	if err := drive(cfg, r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.setLayer("process.rss_peak_mb", "MB", rssPeakMB()+r.workerRSSMB)
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.writeChrome(path, h); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "chrome trace %s (%d spans)\n", path, tr.len())
	}
	if err := r.finish(cfg.workload, cfg.trace); err != nil {
		return nil, err
	}
	return r, nil
}

// host labels every recorded result with the machine it was measured on.
type host struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func probeHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	// The go command stamps the revision when the build runs inside a git
	// checkout; an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}
