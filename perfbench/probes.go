package main

import (
	"bytes"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gini"
	"repro/internal/histogram"
	"repro/internal/nodetable"
	"repro/internal/psort"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Per-layer probes of the traced run. Each one calls a layer's public
// functions on the workload's own training table, from outside, inside a
// span; the engine's internal spans are a later change.

const (
	probeMin   = 50 * time.Millisecond // shortest timed stretch of a kernel probe
	probeBins  = 32                    // the serve forest's bin count
	probeTrees = 8                     // bootstrap gathers, one per forest tree
)

// layerProbes records the psort, gini, histogram, dataset and nodetable
// per-layer metrics on train at p ranks.
func layerProbes(r *report, tr *tracer, train *dataset.Table, p int, seed int64) {
	root := tr.begin("probes", 0)
	defer root.end()
	n := train.NumRows()

	// psort: the presort of every continuous list, from per-rank blocks.
	w := comm.NewWorld(p, timing.T3D())
	blocks := make([]*dataset.Lists, p)
	for rank := range blocks {
		lo, hi := dataset.BlockRange(n, p, rank)
		blocks[rank] = dataset.BuildLists(train.Slice(lo, hi), lo)
	}
	r.setLayer("psort.sort_s", "s", tr.timed("psort.Sort", root.id(), func() {
		w.Run(func(c *comm.Comm) {
			for _, l := range blocks[c.Rank()].Cont {
				if l != nil {
					psort.Sort(c, l)
				}
			}
		})
	}))

	// One sorted continuous list feeds the gini and histogram kernels.
	lists := dataset.BuildLists(train, 0)
	lists.SortContinuous()
	var sorted []dataset.ContEntry
	for _, l := range lists.Cont {
		if l != nil {
			sorted = l
			break
		}
	}
	total := train.ClassHistogram()

	var sink float64
	entries := 0
	d := tr.timed("gini.Matrix scan", root.id(), func() {
		m := gini.NewMatrix(total, nil)
		for start := time.Now(); time.Since(start) < probeMin; {
			m.Reset(total, nil)
			for _, e := range sorted {
				m.Move(e.Cid)
				sink += m.Split()
			}
			entries += len(sorted)
		}
	})
	r.setLayer("gini.scan_ns_per_entry", "ns", d*1e9/float64(entries))

	vals := make([]float64, len(sorted))
	for i, e := range sorted {
		vals[i] = e.Val
	}
	pos := histogram.CutPositions(len(vals), probeBins)
	sample := make([]float64, len(pos))
	for i, p := range pos {
		sample[i] = vals[p]
	}
	column := make([]float64, n) // record order, as the engine bins it
	for _, e := range sorted {
		column[e.Rid] = e.Val
	}
	binned := 0
	d = tr.timed("histogram.BinOf", root.id(), func() {
		for start := time.Now(); time.Since(start) < probeMin; {
			cuts := histogram.Cuts(sample)
			for _, v := range column {
				sink += float64(histogram.BinOf(cuts, v))
			}
			binned += len(column)
		}
	})
	r.setLayer("histogram.binof_ns_per_value", "ns", d*1e9/float64(binned))

	// dataset: one bootstrap Gather per forest tree.
	rng := rand.New(rand.NewSource(seed))
	idx := make([][]int, probeTrees)
	for t := range idx {
		idx[t] = make([]int, n)
		for i := range idx[t] {
			idx[t][i] = rng.Intn(n)
		}
	}
	r.setLayer("dataset.gather_s", "s", tr.timed("dataset.Table.Gather", root.id(), func() {
		for _, ix := range idx {
			sink += float64(train.Gather(ix).NumRows())
		}
	}))

	// nodetable: every rank stores its block's assignments, then enquires
	// the block of the next rank, so the lookups cross ranks.
	var upd, look time.Duration
	tw := comm.NewWorld(p, timing.T3D())
	tw.Run(func(c *comm.Comm) {
		t := nodetable.New(c, n)
		defer t.Free()
		lo, hi := dataset.BlockRange(n, p, c.Rank())
		as := make([]nodetable.Assignment, 0, hi-lo)
		for rid := lo; rid < hi; rid++ {
			as = append(as, nodetable.Assignment{Rid: int32(rid), Child: uint8(rid % 2)})
		}
		lo2, hi2 := dataset.BlockRange(n, p, (c.Rank()+1)%p)
		rids := make([]int32, 0, hi2-lo2)
		for rid := lo2; rid < hi2; rid++ {
			rids = append(rids, int32(rid))
		}
		c.Barrier()
		a := tr.begin("nodetable.Update", root.id())
		t.Update(as)
		c.Barrier()
		du := a.end()
		a = tr.begin("nodetable.Lookup", root.id())
		got := t.Lookup(rids)
		c.Barrier()
		dl := a.end()
		if c.Rank() == 0 {
			upd, look = du, dl
			sink += float64(len(got))
		}
	})
	r.setLayer("nodetable.update_ns_per_record", "ns", float64(upd.Nanoseconds())/float64(n))
	r.setLayer("nodetable.lookup_ns_per_record", "ns", float64(look.Nanoseconds())/float64(n))
	probeSink = sink
}

// probeSink keeps the probed kernels' results live.
var probeSink float64

// decodeProbe times tree.DecodeModel once on each model wire form and
// records the mean.
func decodeProbe(r *report, tr *tracer, bodies ...[]byte) {
	total := 0.0
	for _, b := range bodies {
		var err error
		total += tr.timed("tree.DecodeModel", 0, func() { _, err = tree.DecodeModel(bytes.NewReader(b)) })
		r.op(err)
	}
	r.setLayer("tree.decode_ms", "ms", total/float64(len(bodies))*1e3)
}
