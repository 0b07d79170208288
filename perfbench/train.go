package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/scalparc"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Shares of --seconds. The training workload spends trainShare of the run
// on repeated training calls and the rest on prediction: two thirds on
// whole-table prediction and one third on 8-row batches. Set-up is repeated
// at least setupReps times and until setupTime is spent (at most
// maxSetupReps times), and the median reported, because one set-up is too
// short to time steadily; set-up time is not part of --seconds. Every training call and every set-up starts
// from a collected heap (runtime.GC outside the timed stretch), so one
// call's garbage does not land on the next and the peak resident size does
// not depend on when the collector ran.
const (
	trainShare   = 0.7
	tableShare   = 2.0 / 3 // of the prediction time
	setupReps    = 5
	maxSetupReps = 15
	setupTime    = 2 * time.Second
	minReps      = 3
)

// n scales an input size for the self-test; the benchmark runs at scale 1.
func (c config) n(size int) int { return max(int(float64(size)*c.scale), 64) }

// budget returns the given share of the run's measured seconds.
func (c config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// generate times repeated set-ups and keeps the last one's tables. A
// set-up is datagen.TrainTest plus, when extra is given, the workload's
// further set-up (model builds, server start, worker spawn); extra learns
// from last whether its set-up is the one that stays, and returns the CPU
// seconds its set-up spent in other processes (the TCP workers). setup_s
// is the median on-CPU time of a set-up, this process's and its workers';
// the repetitions are paced by wall time. It also records datagen.gen_s.
func generate(r *report, tr *tracer, dc datagen.Config, nTrain, nTest int, extra func(last bool, train, test *dataset.Table) (float64, error)) (train, test *dataset.Table, err error) {
	var setups, walls, gens []float64
	for spent := 0.0; ; {
		// This set-up stays when one more of average length would end
		// past setupTime.
		last := len(walls)+1 >= maxSetupReps ||
			len(walls)+1 >= setupReps && spent+mean(walls) >= setupTime.Seconds()
		train, test = nil, nil
		runtime.GC()
		start, cpu := time.Now(), cpuNow()
		gen := tr.timed("datagen.TrainTest", 0, func() { train, test, err = datagen.TrainTest(dc, nTrain, nTest) })
		if err != nil {
			return nil, nil, err
		}
		outside := 0.0
		if extra != nil {
			if outside, err = extra(last, train, test); err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, (cpuNow()-cpu).Seconds()+outside)
		walls = append(walls, time.Since(start).Seconds())
		spent += walls[len(walls)-1]
		gens = append(gens, gen)
		if last {
			break
		}
	}
	r.set("setup_s", "s", median(setups))
	r.setLayer("datagen.gen_s", "s", median(gens))
	return train, test, nil
}

// encodeTree returns the tree's JSON wire form, the byte-identity oracle.
// An encoding error comes back as its message, which no tree encodes to, so
// the identity check it feeds fails.
func encodeTree(t *tree.Tree) []byte {
	var b bytes.Buffer
	if err := t.Encode(&b); err != nil {
		return []byte(err.Error())
	}
	return b.Bytes()
}

func encodeForest(f *tree.Forest) []byte {
	var b bytes.Buffer
	if err := f.Encode(&b); err != nil {
		return []byte(err.Error())
	}
	return b.Bytes()
}

// accuracy is the share of labels equal to the table's classes.
func accuracy(labels []int, tab *dataset.Table) float64 {
	ok := 0
	for i, c := range tab.Class {
		if labels[i] == int(c) {
			ok++
		}
	}
	return float64(ok) / float64(max(len(tab.Class), 1))
}

// predictor measures a model's compiled form over the held-out table: the
// whole table through PredictTableInto (predict_rows_per_cpu_s) and 8-row
// batches through PredictRowsInto, the serving kernel (latency_ms), both
// on-CPU. Every output is checked against the walker oracle's labels. It
// measures in rounds on freshly compiled copies of the model (see round),
// so a run's medians are taken over copies as well as over time.
type predictor struct {
	r       *report
	tr      *tracer
	f       *tree.Forest
	test    *dataset.Table
	oracle  []int
	out     []int
	batches [][][]float64
	got     []int
	next    int
	// The samples of every round: compile wall time, whole-table and
	// per-batch on-CPU times, in seconds.
	compiles, tables, lat []float64
}

// predBatch is the serving batch size; batches are timed in blocks of
// predBlock calls so the clock reads are a negligible share of each
// sample. Every prediction round measures predCopies compiled copies.
const predBatch, predBlock, predCopies = 8, 64, 4

// newPredictor computes the walker oracle's labels on the held-out table
// and lays out the 8-row batches.
func newPredictor(cfg config, r *report, tr *tracer, f *tree.Forest, test *dataset.Table) *predictor {
	rows := test.NumRows()
	p := &predictor{r: r, tr: tr, f: f, test: test, oracle: make([]int, rows), out: make([]int, rows), got: make([]int, predBatch)}
	tr.timed("tree.Forest.PredictTableWalk", 0, func() { f.PredictTableWalk(test, p.oracle) })
	if cfg.corruptOracle {
		p.oracle[0]++
	}
	// The rows share one backing array, so their layout does not depend
	// on the state of the heap.
	nb := min(rows/predBatch, 512)
	attrs := len(test.Row(0))
	backing := make([]float64, 0, nb*predBatch*attrs)
	p.batches = make([][][]float64, nb)
	for b := range p.batches {
		for j := 0; j < predBatch; j++ {
			lo := len(backing)
			backing = append(backing, test.Row(b*predBatch+j)...)
			p.batches[b] = append(p.batches[b], backing[lo:len(backing):len(backing)])
		}
	}
	return p
}

// compile compiles the model as the server does: a forest of one tree
// compiles to the single-tree engine.
func (p *predictor) compile() (infer.Compiled, error) {
	if p.f.NumTrees() == 1 {
		return infer.Compile(p.f.Trees[0])
	}
	return infer.CompileForest(p.f)
}

// round measures the model for d on predCopies freshly compiled copies in
// turn. Where the kernel's node table lands in memory moves its speed: one
// copy in eight or so ran batches nearly twice as fast as the others, and
// the rest differed by a tenth, so a run's figures are medians over many
// copies.
func (p *predictor) round(d time.Duration) {
	for i := 0; i < predCopies; i++ {
		p.measureCopy(d / predCopies)
	}
}

// measureCopy compiles a fresh copy of the model and measures it for d:
// two thirds on whole tables, the rest on batches, at least once each.
func (p *predictor) measureCopy(d time.Duration) {
	var m infer.Compiled
	var err error
	c := p.tr.timed("infer.Compile", 0, func() { m, err = p.compile() })
	if !p.r.op(err) {
		return
	}
	p.compiles = append(p.compiles, c)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < time.Duration(float64(d)*tableShare); k++ {
		var err error
		_, c := p.tr.clocked("infer.PredictTableInto", 0, func() { err = m.PredictTableInto(p.test, p.out) })
		if p.r.op(err) && p.r.check(equalLabels(p.out, p.oracle), "compiled table labels differ from the walker oracle") {
			p.tables = append(p.tables, c)
		}
	}
	nb := len(p.batches)
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		var err error
		ok := true
		_, c := p.tr.clocked("infer.PredictRowsInto x64", 0, func() {
			for k := 0; k < predBlock && err == nil; k++ {
				b := p.next % nb
				p.next++
				err = m.PredictRowsInto(p.batches[b], p.got)
				ok = ok && equalLabels(p.got, p.oracle[b*predBatch:b*predBatch+predBatch])
			}
		})
		if p.r.op(err) && p.r.check(ok, "compiled 8-row labels differ from the walker oracle") {
			p.lat = append(p.lat, c/predBlock)
		}
	}
}

// measure spends d on n equal rounds.
func (p *predictor) measure(d time.Duration, n int) {
	for i := 0; i < n; i++ {
		p.round(d / time.Duration(n))
	}
}

// finish records the prediction metrics from every round's samples.
func (p *predictor) finish() {
	r := p.r
	r.set("accuracy", "fraction", accuracy(p.out, p.test))
	perSec := float64(p.test.NumRows()) / median(p.tables)
	r.set("predict_rows_per_cpu_s", "rows/cpu-s", perSec)
	r.setLayer("infer.table_ns_per_row", "ns", 1e9/perSec)
	l := median(p.lat)
	r.set("latency_ms", "ms", l*1e3)
	r.setLayer("infer.rows_ns_per_row.b8", "ns", l*1e9/predBatch)
	r.setLayer("infer.compile_ms", "ms", median(p.compiles)*1e3)
}

func equalLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// trainRun is one training call's outcome in the shape every backend can
// report: its wall and on-CPU times, the modeled critical-path clock, bytes sent summed
// over ranks, the per-phase breakdown and the exact operation counts.
type trainRun struct {
	wall, cpu    float64 // seconds; cpu summed over ranks' processes
	modeledPicos int64
	bytesSent    int64
	peakBytes    int64
	presortShare float64
	levels       int
	nodes        int
	phasePicos   [trace.NumPhases]int64 // critical rank's
	phaseBytes   [trace.NumPhases]int64 // summed over ranks
	stats        comm.Stats             // summed over ranks
}

// simRun condenses a simulated-backend result.
func simRun(w *comm.World, res *scalparc.Result) trainRun {
	ru := trainRun{
		modeledPicos: w.MaxClockPicos(),
		levels:       res.Levels,
		nodes:        res.Tree.NumNodes(),
	}
	if res.ModeledSeconds > 0 {
		ru.presortShare = res.PresortModeledSeconds / res.ModeledSeconds
	}
	for _, p := range res.PeakMemoryPerRank {
		ru.peakBytes = max(ru.peakBytes, p)
	}
	for _, s := range res.Stats {
		ru.stats.Add(s)
	}
	ru.bytesSent = ru.stats.BytesSent
	if res.Trace != nil {
		ru.phasePicos = res.Trace.Ranks[res.Trace.CriticalRank()].PhasePicos()
		for _, rt := range res.Trace.Ranks {
			for _, b := range rt.Buckets() {
				ru.phaseBytes[b.Phase] += b.BytesSent
			}
		}
	}
	return ru
}

// setTrainMetrics records the deterministic end-to-end figures of a
// training call and its scalparc and comm per-layer breakdown.
func setTrainMetrics(r *report, ru trainRun) {
	r.set("modeled_s", "s", float64(ru.modeledPicos)/1e12)
	r.set("comm_mb", "MB", float64(ru.bytesSent)/1e6)
	setLayerMetrics(r, ru)
}

// setLayerMetrics records a training call's scalparc and comm per-layer
// figures.
func setLayerMetrics(r *report, ru trainRun) {
	r.setLayer("scalparc.levels", "count", float64(ru.levels))
	r.setLayer("scalparc.tree_nodes", "count", float64(ru.nodes))
	r.setLayer("scalparc.peak_rank_mb", "MB", float64(ru.peakBytes)/1e6)
	r.setLayer("psort.modeled_share", "fraction", ru.presortShare)
	for _, ph := range []trace.Phase{trace.Sort, trace.FindSplitI, trace.FindSplitII, trace.PerformSplitI, trace.PerformSplitII} {
		r.setLayer("comm."+ph.String()+".modeled_s", "s", float64(ru.phasePicos[ph])/1e12)
		r.setLayer("comm."+ph.String()+".mb", "MB", float64(ru.phaseBytes[ph])/1e6)
	}
	setCalls(r, ru.stats)
}

// setCalls records the collective counts of summed comm.Stats.
func setCalls(r *report, st comm.Stats) {
	counts := []int64{st.AllToAlls, st.AllReduces, st.Scans, st.Allgathers, st.Reduces,
		st.ReduceScatters, st.Bcasts, st.Gathers, st.Barriers, st.MsgsSent} // commCalls order
	for i, op := range commCalls {
		r.setLayer("comm.calls."+op, "count", float64(counts[i]))
	}
}

// sameRun reports how two runs of the same task differ in their
// deterministic figures ("" when they agree).
func sameRun(a, b trainRun) string {
	switch {
	case a.modeledPicos != b.modeledPicos:
		return fmt.Sprintf("modeled clock %d vs %d ps", a.modeledPicos, b.modeledPicos)
	case a.bytesSent != b.bytesSent:
		return fmt.Sprintf("bytes sent %d vs %d", a.bytesSent, b.bytesSent)
	}
	return ""
}

// overhead collects the wall and on-CPU times of a workload's repeated
// training calls, and splits the traced run's calls into traced and
// untraced ones; the ratio of their median wall times is the tracing
// overhead.
type overhead struct {
	walls, cpus   []float64
	traced, plain []float64
}

func (o *overhead) add(traced bool, ru trainRun) {
	o.walls = append(o.walls, ru.wall)
	o.cpus = append(o.cpus, ru.cpu)
	if traced {
		o.traced = append(o.traced, ru.wall)
	} else {
		o.plain = append(o.plain, ru.wall)
	}
}

// trainMetrics records the training throughput per CPU-second from the
// median on-CPU time of a call that trains rows rows, and the median wall
// time as scalparc.train_s. It returns the median wall time.
func (o *overhead) trainMetrics(r *report, rows int) float64 {
	wall := median(o.walls)
	r.set("rows_per_cpu_s", "rows/cpu-s", float64(rows)/median(o.cpus))
	r.setLayer("scalparc.train_s", "s", wall)
	return wall
}

func (o *overhead) report(cfg config, r *report) {
	if cfg.trace {
		r.setLayer("bench.trace_overhead_frac", "fraction", median(o.traced)/median(o.plain)-1)
	}
}
