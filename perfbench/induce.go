package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/scalparc"
	"repro/internal/splitter"
	"repro/internal/timing"
)

// The induce task, which the induce-tcp workload runs over the wire: the
// paper's Quest setting. Function 2 over the Seven attributes with 5%
// perturbation grows a deep tree (tens of thousands of nodes, ~35 levels),
// so the level loop outweighs the presort.
const (
	induceTrain = 400_000
	induceTest  = 100_000
	induceProcs = 2
)

func induceData(seed int64) datagen.Config {
	return datagen.Config{Function: 2, Attrs: datagen.Seven, Seed: seed, Perturbation: 0.05}
}

// simTrain runs one exact induction on the simulated backend at p ranks.
func simTrain(tr *tracer, train *dataset.Table, p int) (*scalparc.Result, trainRun, error) {
	w := comm.NewWorld(p, timing.T3D())
	var res *scalparc.Result
	var err error
	wall, cpu := tr.clocked(fmt.Sprintf("scalparc.TrainOpts p=%d", p), 0, func() {
		res, err = scalparc.TrainOpts(w, train, splitter.Config{}, scalparc.Options{})
	})
	if err != nil {
		return nil, trainRun{}, err
	}
	ru := simRun(w, res)
	ru.wall, ru.cpu = wall, cpu
	return res, ru, nil
}
