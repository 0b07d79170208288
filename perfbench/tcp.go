package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/tcptransport"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/tree"
)

// The induce-tcp workload trains the induce task at p=2 over the TCP
// backend: one OS process per rank, this binary re-executed as its own
// worker. Each worker regenerates the training table from the seed, trains
// repeatedly until rank 0 calls time, and writes a rankReport; rank 0 also
// publishes the tree.

// rankReport is what one worker process reports back to the benchmark.
type rankReport struct {
	Rank  int   `json:"rank"`
	Ready int64 `json:"ready"` // Unix ns at which the rank was connected with its data built
	// ReadyCPU is the CPU seconds the worker process had used by then.
	ReadyCPU float64 `json:"ready_cpu"`
	// Walls, CPUs (this worker process's on-CPU seconds) and Traced
	// describe every training call, in order.
	Walls  []float64 `json:"walls"`
	CPUs   []float64 `json:"cpus"`
	Traced []bool    `json:"traced"`
	// The last call's figures, for this rank only.
	ModeledPicos int64                  `json:"modeled_picos"`
	PeakBytes    int64                  `json:"peak_bytes"`
	PresortShare float64                `json:"presort_share"`
	Levels       int                    `json:"levels"`
	Nodes        int                    `json:"nodes"`
	PhasePicos   [trace.NumPhases]int64 `json:"phase_picos"`
	PhaseBytes   [trace.NumPhases]int64 `json:"phase_bytes"`
	Stats        comm.Stats             `json:"stats"`
	// Wire counters of the last traced call.
	Wire     wireCounters `json:"wire"`
	MaxRSSMB float64      `json:"max_rss_mb"`
	Spans    []span       `json:"spans,omitempty"`
}

// wireCounters is the transport decorator's tally of one training call.
type wireCounters struct {
	ExchangeCalls int64 `json:"exchange_calls"`
	ExchangeNs    int64 `json:"exchange_ns"`
	SendRecvNs    int64 `json:"send_recv_ns"`
	FrameBytes    int64 `json:"frame_bytes"`
}

// tracedTransport is a comm.Transport decorator: while on, it wraps a span
// around every Exchange, Send and Recv and counts calls, time (waiting for
// peers included) and payload bytes handed to the wire. Like the
// transport, it is used only from the rank's SPMD goroutine.
type tracedTransport struct {
	comm.Transport
	tr     *tracer
	on     bool
	parent int64
	wire   wireCounters
}

func (t *tracedTransport) Exchange(tag comm.Tag, f comm.Frame) ([]comm.Frame, error) {
	if !t.on {
		return t.Transport.Exchange(tag, f)
	}
	a := t.tr.begin("tcptransport.Exchange", t.parent)
	out, err := t.Transport.Exchange(tag, f)
	t.wire.ExchangeNs += int64(a.end())
	t.wire.ExchangeCalls++
	t.wire.FrameBytes += int64(len(f.Data)) * int64(len(out)-1)
	return out, err
}

func (t *tracedTransport) Send(dst int, tag comm.Tag, f comm.Frame) error {
	if !t.on {
		return t.Transport.Send(dst, tag, f)
	}
	a := t.tr.begin("tcptransport.Send", t.parent)
	err := t.Transport.Send(dst, tag, f)
	t.wire.SendRecvNs += int64(a.end())
	t.wire.FrameBytes += int64(len(f.Data))
	return err
}

func (t *tracedTransport) Recv(src int, tag comm.Tag) (comm.Frame, error) {
	if !t.on {
		return t.Transport.Recv(src, tag)
	}
	a := t.tr.begin("tcptransport.Recv", t.parent)
	f, err := t.Transport.Recv(src, tag)
	t.wire.SendRecvNs += int64(a.end())
	return f, err
}

// tcpWorker is one rank's life: build the table, connect the mesh, train
// until rank 0 calls time, report.
func tcpWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	rows := fs.Int("rows", induceTrain, "")
	budget := fs.Duration("budget", 0, "training budget; 0 builds and connects only")
	traced := fs.Bool("trace", false, "")
	dir := fs.String("dir", "", "report directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A rank's training runs on one goroutine; with one P per worker the
	// two workers together run no more threads at once than the host has
	// CPUs, and no idle P spins on a CPU while its rank waits for a peer.
	runtime.GOMAXPROCS(1)
	train, err := datagen.Generate(induceData(*seed), *rows)
	if err != nil {
		return err
	}
	t, err := tcptransport.FromEnv()
	if err != nil {
		return err
	}
	defer t.Close()
	rep := rankReport{Rank: t.Rank(), Ready: time.Now().UnixNano(), ReadyCPU: cpuNow().Seconds()}
	tr := newTracer(*traced)
	tr.pid = t.Rank() + 1
	dec := &tracedTransport{Transport: t, tr: tr}
	var wire comm.Transport = t
	if *traced {
		wire = dec
	}
	w := comm.NewTransportWorld(wire, timing.T3D())
	start := time.Now()
	var res *scalparc.Result
	for i := 0; *budget > 0; i++ {
		// Rank 0 alone decides whether to go on, so every rank runs the
		// same number of collective training calls.
		more := int64(0)
		if i < minReps || time.Since(start) < *budget {
			more = 1
		}
		w.Run(func(c *comm.Comm) { more = comm.Bcast(c, 0, []int64{more})[0] })
		if more == 0 {
			break
		}
		runtime.GC()
		dec.on = *traced && i%2 == 0
		dec.wire = wireCounters{}
		c := cpuNow()
		a := tr.begin("scalparc.TrainOpts p=2 tcp", 0)
		dec.parent = a.id()
		res, err = scalparc.TrainOpts(w, train, splitter.Config{}, scalparc.Options{})
		d := a.end()
		rep.CPUs = append(rep.CPUs, (cpuNow() - c).Seconds())
		traced := dec.on
		dec.on = false
		if err != nil {
			return err
		}
		rep.Walls = append(rep.Walls, d.Seconds())
		rep.Traced = append(rep.Traced, traced)
		if traced {
			rep.Wire = dec.wire
		}
		// Read the figures now: the next decision's Bcast advances the
		// clock and counts bytes.
		ru := simRun(w, res)
		rep.ModeledPicos, rep.PeakBytes, rep.PresortShare = ru.modeledPicos, ru.peakBytes, ru.presortShare
		rep.Levels, rep.Nodes, rep.Stats = ru.levels, ru.nodes, ru.stats
		rep.PhasePicos, rep.PhaseBytes = ru.phasePicos, ru.phaseBytes
	}
	rep.MaxRSSMB = rssPeakMB()
	rep.Spans = tr.spans
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "rank-"+strconv.Itoa(t.Rank())+".json"), data, 0o644); err != nil {
		return err
	}
	if t.Rank() != 0 {
		return nil
	}
	var tree []byte
	if res != nil {
		tree = encodeTree(res.Tree)
	}
	return tcptransport.WriteResult(tree)
}

// tcpJob is one launch of the worker processes and what they reported.
type tcpJob struct {
	spawn    float64 // launch to every rank connected, seconds
	spawnCPU float64 // CPU seconds the workers used until connected, summed
	tree     []byte
	ranks    []rankReport
}

// launchTCP starts induceProcs workers with the given training budget
// (0: set up only) and collects their reports.
func launchTCP(cfg config, budget time.Duration) (tcpJob, error) {
	var job tcpJob
	dir, err := os.MkdirTemp("", "perfbench-ranks-")
	if err != nil {
		return job, err
	}
	defer os.RemoveAll(dir)
	args := []string{
		"-seed", fmt.Sprint(cfg.seed), "-rows", fmt.Sprint(cfg.n(induceTrain)),
		"-budget", budget.String(), "-trace=" + strconv.FormatBool(cfg.trace), "-dir", dir,
	}
	start := time.Now()
	j, err := tcptransport.LaunchWith(induceProcs, args, os.Stderr, tcptransport.LaunchOpts{Grace: 10 * time.Second})
	if err != nil {
		return job, err
	}
	defer j.Close()
	if job.tree, err = j.Wait(); err != nil {
		return job, err
	}
	for rank := 0; rank < induceProcs; rank++ {
		data, err := os.ReadFile(filepath.Join(dir, "rank-"+strconv.Itoa(rank)+".json"))
		if err != nil {
			return job, err
		}
		var rr rankReport
		if err := json.Unmarshal(data, &rr); err != nil {
			return job, fmt.Errorf("rank %d report: %w", rank, err)
		}
		job.ranks = append(job.ranks, rr)
		job.spawn = max(job.spawn, time.Duration(rr.Ready-start.UnixNano()).Seconds())
		job.spawnCPU += rr.ReadyCPU
	}
	return job, nil
}

// runInduceTCP is the induce task at p=2 over real worker processes,
// checked against the simulated backend.
func runInduceTCP(cfg config, r *report, tr *tracer) error {
	var job tcpJob
	var spawns []float64
	// Every set-up spawns the workers; the last one's workers train.
	train, test, err := generate(r, tr, induceData(cfg.seed), cfg.n(induceTrain), cfg.n(induceTest),
		func(last bool, _, _ *dataset.Table) (float64, error) {
			budget := time.Duration(0)
			if last {
				budget = cfg.budget(trainShare)
			}
			var err error
			if job, err = launchTCP(cfg, budget); err != nil {
				return 0, err
			}
			spawns = append(spawns, job.spawn)
			return job.spawnCPU, nil
		})
	if err != nil {
		return err
	}

	// A call's wall time is the slowest rank's; its on-CPU time is summed
	// over the ranks' processes.
	var ov overhead
	calls := len(job.ranks[0].Walls)
	var ru trainRun
	crit := job.ranks[0]
	for _, rr := range job.ranks {
		if len(rr.Walls) != calls || len(rr.CPUs) != calls {
			return fmt.Errorf("rank %d made %d training calls, rank 0 made %d", rr.Rank, len(rr.Walls), calls)
		}
		if rr.ModeledPicos > crit.ModeledPicos {
			crit = rr
		}
		ru.bytesSent += rr.Stats.BytesSent
		ru.peakBytes = max(ru.peakBytes, rr.PeakBytes)
		ru.stats.Add(rr.Stats)
		for ph, b := range rr.PhaseBytes {
			ru.phaseBytes[ph] += b
		}
		r.workerRSSMB += rr.MaxRSSMB
		tr.add(rr.Spans)
	}
	ru.modeledPicos, ru.presortShare, ru.phasePicos = crit.ModeledPicos, crit.PresortShare, crit.PhasePicos
	ru.levels, ru.nodes = job.ranks[0].Levels, job.ranks[0].Nodes
	for i := 0; i < calls; i++ {
		var call trainRun
		for _, rr := range job.ranks {
			call.wall = max(call.wall, rr.Walls[i])
			call.cpu += rr.CPUs[i]
		}
		r.op(nil)
		ov.add(job.ranks[0].Traced[i], call)
	}
	wall := ov.trainMetrics(r, train.NumRows())
	setTrainMetrics(r, ru)
	ov.report(cfg, r)
	if cfg.trace {
		var w wireCounters
		for _, rr := range job.ranks {
			w.ExchangeCalls += rr.Wire.ExchangeCalls
			w.FrameBytes += rr.Wire.FrameBytes
			w.ExchangeNs = max(w.ExchangeNs, rr.Wire.ExchangeNs)
			w.SendRecvNs = max(w.SendRecvNs, rr.Wire.SendRecvNs)
		}
		r.setLayer("tcptransport.exchange_calls", "count", float64(w.ExchangeCalls))
		r.setLayer("tcptransport.exchange_s", "s", float64(w.ExchangeNs)/1e9)
		r.setLayer("tcptransport.send_recv_s", "s", float64(w.SendRecvNs)/1e9)
		r.setLayer("tcptransport.frame_mb", "MB", float64(w.FrameBytes)/1e6)
		r.setLayer("tcptransport.spawn_s", "s", median(spawns))
	}

	// The workers' tree is measured after they exit, in as many rounds as
	// they made training calls.
	model, err := tree.Decode(bytes.NewReader(job.tree))
	if r.op(err) {
		pr := newPredictor(cfg, r, tr, &tree.Forest{Schema: model.Schema, Trees: []*tree.Tree{model}}, test)
		pr.measure(cfg.budget(1-trainShare), calls)
		pr.finish()
	}

	// The wire changes neither the modeled clock nor the bytes nor the tree.
	if _, sim, err := simTrain(tr, train, induceProcs); r.op(err) {
		d := sameRun(ru, sim)
		r.check(d == "", "tcp and simulated p=%d runs differ: %s", induceProcs, d)
	}
	if res1, p1, err := simTrain(tr, train, 1); r.op(err) {
		r.check(bytes.Equal(encodeTree(res1.Tree), job.tree), "tcp p=%d tree differs from the p=1 tree", induceProcs)
		r.setLayer("scalparc.speedup", "x", p1.wall/wall)
	}
	if cfg.trace {
		layerProbes(r, tr, train, induceProcs, cfg.seed)
		decodeProbe(r, tr, job.tree)
	}
	return nil
}
