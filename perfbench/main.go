// Command perfbench is the repository's benchmark: it runs one workload of
// the serving tier or the offline paper pipeline in-process, checks that
// every output is correct, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload serve_exact --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "serve_exact or offline")
	seed := flag.Uint64("seed", 1, "workload seed: every input, schedule and sampling seed derives from it")
	seconds := flag.Int("seconds", 20, "serving time: each of the two rate steps lasts half of it")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 traces the layers and prints per-layer metrics")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, sc: fullScale}
	rep, err := runWorkload(*workload, o)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rep.result(o.traced)
	if err != nil {
		log.Fatal(err)
	}
	rec := fingerprint()
	rec["workload"], rec["seed"], rec["seconds"], rec["trace"] = *workload, *seed, *seconds, *trace
	rec["values"], rec["detail"], rec["problems"] = rep.vals, rep.detail, rep.problems
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		log.Fatalf("output checks failed:\n%s", strings.Join(rep.problems, "\n"))
	}
}
