package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/tree"
)

// The serve workload: an in-process serve.Server on loopback holding two
// models, an induce-style tree and a T=8 forest, driven over at most nproc
// connections by as many generator goroutines. Load phases, in order, as
// shares of --seconds:
//
//   - an open loop at serveLowRate, then at serveHighRate, requests/s of
//     serveRows JSON rows alternating between the models, each request
//     timed from when it was due; one model upload per serveUploadEvery
//     rides along on the same schedule;
//   - a closed loop of serveClosedRows-row requests, for saturation
//     throughput, alternating in serveRounds rounds with the forest's
//     compiled kernel, which takes the rest of the budget, so a slow
//     spell of the host lands on a few samples of each rather than on all
//     the samples of one.
//
// Every 200 response is checked against its model's walker oracle; a
// non-200 (a shed 503 included) or a wrong response counts as failed and
// as infinitely late.
const (
	serveTreeTrain   = 100_000
	serveForestTrain = 5_000
	serveTest        = 20_000
	serveLowRate     = 200
	serveHighRate    = 800
	serveRows        = 8
	serveClosedRows  = 64
	serveUploadEvery = time.Second
	serveLowShare    = 0.2
	serveHighShare   = 0.2
	serveClosedShare = 0.3
	serveKernelShare = 1 - serveLowShare - serveHighShare - serveClosedShare
	serveRounds      = 8
	serveWindows     = 4   // closed-loop throughput samples per round
	serveCycle       = 256 // distinct request bodies per load phase
	serveCheckRows   = 512 // rows per request of the accuracy pass
)

// servedModel is one model the server holds, with its held-out rows and
// the walker oracle's labels for them.
type servedModel struct {
	name   string
	forest *tree.Forest
	test   *dataset.Table
	oracle []int
	upload []byte // the model's wire form, re-uploaded under traffic
}

// body is one prebuilt request and the labels its response must carry.
type body struct {
	m    *servedModel
	data []byte
	want []int
}

// rig is a running server and its client.
type rig struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
	conns  int
	models []*servedModel
	build  trainRun // both models' training, summed
}

// startRig trains both models, loads them into a new server and starts it
// on loopback.
func startRig(cfg config, tr *tracer, treeTrain, treeTest *dataset.Table) (*rig, error) {
	g := &rig{conns: min(2, runtime.NumCPU()), done: make(chan error, 1)}
	res, ru, err := simTrain(tr, treeTrain, induceProcs)
	if err != nil {
		return nil, err
	}
	ftrain, ftest, err := datagen.TrainTest(forestData(cfg.seed), cfg.n(serveForestTrain), cfg.n(serveTest))
	if err != nil {
		return nil, err
	}
	fres, fru, err := trainForest(tr, ftrain, forestOptions(cfg.seed, forestTrees))
	if err != nil {
		return nil, err
	}
	ru.modeledPicos += fru.modeledPicos
	ru.bytesSent += fru.bytesSent
	ru.stats.Add(fru.stats)
	g.build = ru
	g.models = []*servedModel{
		{name: "tree", forest: &tree.Forest{Schema: res.Tree.Schema, Trees: []*tree.Tree{res.Tree}}, test: treeTest, upload: encodeTree(res.Tree)},
		{name: "forest", forest: fres.Forest, test: ftest, upload: encodeForest(fres.Forest)},
	}
	g.srv = serve.New(serve.Config{})
	for _, m := range g.models {
		m.oracle = make([]int, m.test.NumRows())
		m.forest.PredictTableWalk(m.test, m.oracle)
		if _, err := g.srv.SetForest(m.name, m.forest); err != nil {
			g.srv.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.srv.Close()
		return nil, err
	}
	g.hs = &http.Server{Handler: g.srv.Handler()}
	go func() { g.done <- g.hs.Serve(ln) }()
	g.base = "http://" + ln.Addr().String()
	g.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: g.conns, MaxIdleConnsPerHost: g.conns}}
	return g, nil
}

// stop shuts the server down and waits for it.
func (g *rig) stop() {
	g.hs.Close()
	<-g.done
	g.srv.Close()
	g.client.CloseIdleConnections()
}

// bodies prebuilds a cycle of requests of the given row count, alternating
// between the models, so the measured loops spend no time marshaling.
func (g *rig) bodies(rows int) ([]body, error) {
	out := make([]body, serveCycle)
	for i := range out {
		m := g.models[i%len(g.models)]
		lo := (i / len(g.models) * rows) % (m.test.NumRows() - rows + 1)
		vals := make([][]float64, rows)
		for j := range vals {
			vals[j] = m.test.Row(lo + j)
		}
		data, err := json.Marshal(map[string]any{"rows": vals})
		if err != nil {
			return nil, err
		}
		out[i] = body{m: m, data: data, want: m.oracle[lo : lo+rows]}
	}
	return out, nil
}

// predict sends one request and checks the response against the oracle.
func (g *rig) predict(b body) error {
	resp, err := g.client.Post(g.base+"/predict/"+b.m.name, "application/json", bytes.NewReader(b.data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return fmt.Errorf("predict %s: status %d", b.m.name, resp.StatusCode)
	}
	var pr struct {
		Indices []int `json:"indices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return fmt.Errorf("predict %s: %w", b.m.name, err)
	}
	if !equalLabels(pr.Indices, b.want) {
		return fmt.Errorf("predict %s: served labels differ from the walker oracle", b.m.name)
	}
	return nil
}

// upload stores the model's wire form again as its newest version.
func (g *rig) upload(m *servedModel) error {
	resp, err := g.client.Post(g.base+"/models/"+m.name, "application/json", bytes.NewReader(m.upload))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %s: status %d", m.name, resp.StatusCode)
	}
	return nil
}

// flushStats is a snapshot of the server's batching counters.
type flushStats struct{ batches, rows, deadline, sheds, swaps int64 }

func (g *rig) snapshot() flushStats {
	s := g.srv.Stats()
	return flushStats{s.Batches.Load(), s.BatchRows.Load(), s.DeadlineFlushes.Load(), s.Sheds.Load(), s.Swaps.Load()}
}

// openResult is one open-loop phase's client-side record.
type openResult struct {
	lat, lag, swap []float64 // milliseconds; a failed request's latency is +Inf
	flush          flushStats
}

// openLoop sends requests on a fixed schedule at rate per second for dur,
// with an upload every serveUploadEvery, over g.conns generator
// goroutines. A generator that falls behind sends at once; the request's
// latency still counts from when it was due.
func (g *rig) openLoop(r *report, tr *tracer, bodies []body, rate float64, dur time.Duration, name string) openResult {
	type op struct {
		due    time.Duration
		upload *servedModel
		b      body
	}
	var ops []op
	for i := 0; i < int(rate*dur.Seconds()); i++ {
		ops = append(ops, op{due: time.Duration(float64(i) / rate * float64(time.Second)), b: bodies[i%len(bodies)]})
	}
	for k := 0; time.Duration(k)*serveUploadEvery+serveUploadEvery/2 < dur; k++ {
		ops = append(ops, op{due: time.Duration(k)*serveUploadEvery + serveUploadEvery/2, upload: g.models[k%len(g.models)]})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	phase := tr.begin("serve open loop "+name, 0)
	before := g.snapshot()
	var res openResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for gen := 0; gen < g.conns; gen++ {
		wg.Add(1)
		go func(gen int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.due)
				time.Sleep(time.Until(due))
				lag := time.Since(due)
				name := "POST /models/"
				if o.upload == nil {
					name = "POST /predict/"
				}
				a := tr.begin(name, phase.id())
				a.s.Req, a.s.Tid = int64(i+1), gen+1
				var err error
				if o.upload != nil {
					err = g.upload(o.upload)
				} else {
					err = g.predict(o.b)
				}
				d := a.end()
				late := time.Since(due)
				ok := r.op(err)
				mu.Lock()
				switch {
				case o.upload != nil && ok:
					res.swap = append(res.swap, ms(d))
				case o.upload == nil && ok:
					res.lat = append(res.lat, ms(late))
					res.lag = append(res.lag, ms(lag))
				case o.upload == nil:
					res.lat = append(res.lat, math.Inf(1))
					res.lag = append(res.lag, ms(lag))
				}
				mu.Unlock()
			}
		}(gen)
	}
	wg.Wait()
	phase.end()
	after := g.snapshot()
	res.flush = flushStats{after.batches - before.batches, after.rows - before.rows,
		after.deadline - before.deadline, after.sheds - before.sheds, after.swaps - before.swaps}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// closedLoop has every generator send its next request as soon as the last
// one returns, for dur, and returns the rows answered per wall second and
// per CPU-second of the process (client and server together), over the
// time until the last answer came.
func (g *rig) closedLoop(r *report, tr *tracer, bodies []body, dur time.Duration) (perWall, perCPU float64) {
	cpu := cpuNow()
	phase := tr.begin("serve closed loop", 0)
	var rows atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for gen := 0; gen < g.conns; gen++ {
		wg.Add(1)
		go func(gen int) {
			defer wg.Done()
			for i := gen; time.Since(start) < dur; i += g.conns {
				b := bodies[i%len(bodies)]
				a := tr.begin("POST /predict/", phase.id())
				a.s.Tid = gen + 1
				err := g.predict(b)
				a.end()
				if r.op(err) {
					rows.Add(int64(len(b.want)))
				}
			}
		}(gen)
	}
	wg.Wait()
	wall := phase.end()
	n := float64(rows.Load())
	return n / wall.Seconds(), n / (cpuNow() - cpu).Seconds()
}

// accuracyPass sends every held-out row of both models through the server
// and returns the served labels' accuracy.
func (g *rig) accuracyPass(r *report) float64 {
	ok, total := 0, 0
	for _, m := range g.models {
		n := m.test.NumRows()
		for lo := 0; lo < n; lo += serveCheckRows {
			hi := min(lo+serveCheckRows, n)
			vals := make([][]float64, hi-lo)
			for j := range vals {
				vals[j] = m.test.Row(lo + j)
			}
			data, err := json.Marshal(map[string]any{"rows": vals})
			if err == nil {
				err = g.predict(body{m: m, data: data, want: m.oracle[lo:hi]})
			}
			if r.op(err) {
				for j := lo; j < hi; j++ {
					if m.oracle[j] == int(m.test.Class[j]) {
						ok++
					}
				}
			}
			total += hi - lo
		}
	}
	return float64(ok) / float64(max(total, 1))
}

func runServe(cfg config, r *report, tr *tracer) error {
	var g *rig
	// Every set-up trains both models and starts a server; the last one
	// serves.
	train, _, err := generate(r, tr, induceData(cfg.seed), cfg.n(serveTreeTrain), cfg.n(serveTest),
		func(last bool, train, test *dataset.Table) (float64, error) {
			var err error
			tr.timed("serve set-up", 0, func() {
				if g != nil {
					g.stop()
				}
				g, err = startRig(cfg, tr, train, test)
			})
			return 0, err
		})
	if err != nil {
		return err
	}
	defer g.stop()
	if cfg.corruptOracle {
		g.models[0].oracle[0]++
	}
	small, err := g.bodies(serveRows)
	if err != nil {
		return err
	}
	large, err := g.bodies(serveClosedRows)
	if err != nil {
		return err
	}

	low := g.openLoop(r, tr, small, serveLowRate, cfg.budget(serveLowShare), "low")
	high := g.openLoop(r, tr, small, serveHighRate, cfg.budget(serveHighShare), "high")
	// The forest's compiled kernel gives predict_rows_per_cpu_s and the
	// infer layer. The predictor also records an accuracy and a latency,
	// which the served figures below replace.
	pr := newPredictor(cfg, r, tr, g.models[1].forest, g.models[1].test)
	var rates, plain, traced []float64
	for i := 0; i < serveRounds; i++ {
		// A traced run leaves every other closed-loop round untraced: the
		// ratio of their median wall throughputs is the tracing overhead.
		t := tr
		if cfg.trace && i%2 == 0 {
			t = newTracer(false)
		}
		rate, perCPU := g.closedLoop(r, t, large, cfg.budget(serveClosedShare)/serveRounds)
		rates = append(rates, perCPU)
		if t.on {
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
		}
		pr.round(cfg.budget(serveKernelShare) / serveRounds)
	}
	if cfg.trace {
		r.setLayer("bench.trace_overhead_frac", "fraction", median(plain)/median(traced)-1)
		r.setLayer("serve.rows_per_s", "rows/s", median(plain))
	}
	perSec := median(rates)
	served := g.accuracyPass(r)
	pr.finish()
	r.set("accuracy", "fraction", served)
	r.set("latency_ms", "ms", median(low.lat))
	r.set("rows_per_cpu_s", "rows/cpu-s", perSec)
	setTrainMetrics(r, g.build)
	r.setLayer("scalparc.train_s", "s", g.build.wall)

	if cfg.trace {
		for _, ph := range []struct {
			name string
			res  openResult
		}{{"low", low}, {"high", high}} {
			lat := ph.res.lat
			r.setLayer("serve.samples."+ph.name, "count", float64(len(lat)))
			r.setLayer("serve.p90_ms."+ph.name, "ms", quantile(lat, 0.9))
			r.setLayer("serve.p99_ms."+ph.name, "ms", quantile(lat, 0.99))
			f := ph.res.flush
			r.setLayer("serve.deadline_flush_frac."+ph.name, "fraction", float64(f.deadline)/float64(max(f.batches, 1)))
			r.setLayer("serve.mean_batch_rows."+ph.name, "rows", float64(f.rows)/float64(max(f.batches, 1)))
		}
		r.setLayer("serve.p50_ms.high", "ms", median(high.lat))
		lags := append(append([]float64(nil), low.lag...), high.lag...)
		r.setLayer("serve.gen_lag_ms", "ms", quantile(lags, 1))
		r.setLayer("serve.sheds", "count", float64(g.srv.Stats().Sheds.Load()))
		r.setLayer("serve.swap_ms", "ms", median(append(low.swap, high.swap...)))
		r.setLayer("cache.swaps", "count", float64(low.flush.swaps+high.flush.swaps))
		decodeProbe(r, tr, g.models[0].upload, g.models[1].upload)
		layerProbes(r, tr, train, induceProcs, cfg.seed)
	}
	return nil
}
