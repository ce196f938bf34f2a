// Command xtbench is the repository's outside-in benchmark. It generates a
// workload's designs from a seed, serialises them to DEF, and drives the
// verifier through its public API only, timing whole ops with tracing off
// (--trace 0) or replaying the same ops layer by layer (--trace 1). Every
// op's output is checked against a reference computed through an
// independent public path. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root:
//
//	bash xtbench/run.sh --workload dsp-signoff --seed 1 --seconds 10 --trace 0
//
// See xtbench/README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

func main() {
	fs := flag.NewFlagSet("xtbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: dsp-signoff | chip-stream | eco-reverify")
	seed := fs.Int64("seed", 1, "seed the designs and ECO edits are generated from")
	seconds := fs.Int("seconds", 10, "how long the timed (or traced) ops run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	setupChild := fs.String("setup-child", "", "measure the cold set-up of this DEF file in this fresh process and print it (used by the benchmark itself)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace, *setupChild); err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, setupChild string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	switch {
	case setupChild != "":
		s, err := coldSetup(w, setupChild)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(s)
	case trace == 0:
		res, err := endToEnd(w, seed, seconds)
		if err != nil {
			return err
		}
		return printResult(res)
	case trace == 1:
		res, err := traced(w, seed, seconds)
		if err != nil {
			return err
		}
		return printResult(res)
	}
	return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked ops.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) result(metrics map[string]metric) *result {
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "xtbench: %d of %d ops failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func printResult(r *result) error {
	fmt.Printf("fail_frac %s (%d of %d ops)\n", strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', 4, 64),
		r.Failed, r.Attempted)
	return json.NewEncoder(os.Stdout).Encode(r)
}
