// Command tntrain trains one model (bench x penalty) and saves it as JSON for
// later deployment with tnchip or programmatic use.
//
// Usage:
//
//	tntrain -bench 1 -penalty biased -o bench1_biased.json
//	tntrain -bench 4 -penalty none -quick -o bench4_none.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/eval"
)

func main() {
	var (
		benchID = flag.Int("bench", 1, "test bench id (1-5, Table 3)")
		penalty = flag.String("penalty", "none", "penalty: none, l1, l2, biased")
		lambda  = flag.Float64("lambda", -1, "penalty coefficient (-1 = bench default)")
		quick   = flag.Bool("quick", false, "smoke scale")
		seed    = flag.Uint64("seed", 20160605, "master seed")
		workers = flag.Int("workers", 0, "goroutine cap")
		epochs  = flag.Int("epochs", 0, "override epochs")
		batch   = flag.Int("batch", 0, "override SGD minibatch size (default 32)")
		out     = flag.String("o", "model.json", "output model path")
	)
	flag.Parse()

	b, err := eval.BenchByID(*benchID)
	if err != nil {
		fatal(err)
	}
	opt := eval.Options{Quick: *quick, Seed: *seed, Workers: *workers, EpochsN: *epochs, BatchN: *batch}
	r := eval.NewRunner(opt, os.Stderr)
	train, test := r.Data(b)
	cfg, defLambda := opt.TrainConfig(*penalty)
	cfg.Progress = r.Progress(b.Name+"/"+*penalty, train.Len())
	if *lambda >= 0 {
		defLambda = *lambda
	}
	m, err := core.TrainModel(core.TrainSpec{
		Arch: b.Arch, Penalty: *penalty, Lambda: defLambda, Train: cfg, Seed: *seed + uint64(b.ID),
	}, train, test)
	if err != nil {
		fatal(err)
	}
	if err := m.SaveFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("trained %s/%s: float accuracy %.4f, %d cores, saved to %s\n",
		b.Name, *penalty, m.Meta.FloatAccuracy, m.Meta.Cores, *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tntrain:", err)
	os.Exit(1)
}
