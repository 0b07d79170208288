package main

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
)

// The serve workload's forest: the EXP-FOREST family (Quest function 7,
// Nine attributes, 20% label noise). Trees are binned at 32 with a feature
// sample of 3, each on a world of two ranks so the binned reduce-scatter
// carries real traffic.
const (
	forestTrees    = 8
	forestProcs    = 2
	forestParallel = 1
	forestBins     = 32
	forestSample   = 3
	forestMinSplit = 16
)

func forestData(seed int64) datagen.Config {
	return datagen.Config{Function: 7, Attrs: datagen.Nine, Seed: seed, LabelNoise: 0.2}
}

func forestOptions(seed int64, trees int) scalparc.ForestOptions {
	return scalparc.ForestOptions{
		Trees: trees, Seed: uint64(seed), FeatureSample: forestSample,
		Procs: forestProcs, Parallel: forestParallel,
		Engine: scalparc.Options{Split: scalparc.SplitBinned, Bins: forestBins},
	}
}

// trainForest runs one TrainForest call and condenses its figures.
func trainForest(tr *tracer, train *dataset.Table, fo scalparc.ForestOptions) (*scalparc.ForestResult, trainRun, error) {
	var res *scalparc.ForestResult
	var err error
	wall, cpu := tr.clocked("scalparc.TrainForest", 0, func() {
		res, err = scalparc.TrainForest(train, splitter.Config{MinSplit: forestMinSplit}, fo)
	})
	if err == nil && len(res.LostTrees) > 0 {
		err = fmt.Errorf("trees %v lost", res.LostTrees)
	}
	if err != nil {
		return nil, trainRun{}, err
	}
	ru := trainRun{
		wall:         wall,
		cpu:          cpu,
		modeledPicos: int64(res.ModeledSeconds*1e12 + 0.5),
		bytesSent:    res.Stats.BytesSent,
		stats:        res.Stats,
	}
	for _, t := range res.Forest.Trees {
		ru.nodes += t.NumNodes()
	}
	return res, ru, nil
}
