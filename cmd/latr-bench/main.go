// Command latr-bench regenerates the paper's evaluation: every table and
// figure of §6 plus the ablation studies.
//
// Usage:
//
//	latr-bench                      # run everything (can take minutes)
//	latr-bench -exp fig6,fig9       # run a subset
//	latr-bench -list                # list experiment ids
//	latr-bench -quick               # smaller runs, same shapes
//	latr-bench -ablations           # run every registered experiment
//	latr-bench -parallel 8          # fan each experiment's runs across 8 workers
//	latr-bench -exp remote -json    # also write BENCH_remote.json
//
// Stdout carries only the tables, so it is byte-identical at any -parallel;
// each experiment's wall time goes to stderr.
//
// Regression gate: -compare re-runs each committed baseline's experiment
// with the baseline's recorded options and fails when any result cell's or
// note's text differs. The simulator is deterministic, so identical code
// reproduces every baseline exactly; a differing cell or note means the
// model changed.
//
//	latr-bench -compare baselines/              # all BENCH_*.json in the dir
//	latr-bench -compare BENCH_table5.json       # one baseline
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"latr"
)

func writeJSON(tbl *latr.ExperimentTable, o latr.ExperimentOptions, wall float64) error {
	data, err := latr.BenchJSONFromTable(tbl, o, wall).Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+tbl.ID+".json", data, 0o644)
}

// baselineFiles expands a -compare argument into baseline paths: a
// directory means every BENCH_*.json inside it, sorted for deterministic
// order; anything else is taken as one baseline file.
func baselineFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("latr-bench: no BENCH_*.json baselines in %s", path)
	}
	sort.Strings(files)
	return files, nil
}

// runCompare executes the regression gate for every baseline and reports
// per-experiment PASS/FAIL. Any diff or error makes the exit code 1.
func runCompare(stdout, stderr io.Writer, path string, workers int) int {
	files, err := baselineFiles(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	failed := 0
	for _, f := range files {
		base, err := latr.LoadBenchJSON(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			failed++
			continue
		}
		// Re-run with the exact options the baseline recorded, so the
		// deterministic engine is expected to reproduce it cell for cell.
		o := latr.ExperimentOptions{Quick: base.Quick, Seed: base.Seed, Workers: workers}
		start := time.Now()
		tbl, err := latr.RunExperiment(base.ID, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			failed++
			continue
		}
		cur := latr.BenchJSONFromTable(tbl, o, time.Since(start).Seconds())
		diffs, err := latr.CompareBench(base, cur)
		switch {
		case err != nil:
			fmt.Fprintf(stdout, "FAIL %-8s %s: %v\n", base.ID, filepath.Base(f), err)
			failed++
		case len(diffs) > 0:
			fmt.Fprintf(stdout, "FAIL %-8s %s: %d cell(s) differ\n", base.ID, filepath.Base(f), len(diffs))
			for _, d := range diffs {
				fmt.Fprintf(stdout, "     %s\n", d)
			}
			failed++
		default:
			fmt.Fprintf(stdout, "ok   %-8s %s (%.1fs)\n", base.ID, filepath.Base(f), cur.WallSec)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "latr-bench: %d of %d baseline(s) failed the regression gate\n", failed, len(files))
		return 1
	}
	fmt.Fprintf(stdout, "latr-bench: %d baseline(s) reproduced exactly\n", len(files))
	return 0
}

// run is the testable body of the command.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("latr-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list experiment ids and exit")
		exp       = fs.String("exp", "", "comma-separated experiment ids (default: all figures+tables)")
		quick     = fs.Bool("quick", false, "smaller runs (same shapes, less precision)")
		ablations = fs.Bool("ablations", false, "run every registered experiment: the paper's, then the ablation studies and the cluster, virt, ptrepl and tune extensions")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		check     = fs.Bool("check", false, "enable the TLB reuse-invariant checker (slower)")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "worker pool size for each experiment's independent runs (1 = sequential)")
		emitJSON  = fs.Bool("json", false, "also write BENCH_<id>.json for each experiment run")
		compare   = fs.String("compare", "", "regression gate: re-run the experiments recorded in this baseline file (or every BENCH_*.json in this directory) and fail on any differing cell or note")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range latr.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	if *compare != "" {
		return runCompare(stdout, stderr, *compare, *parallel)
	}

	o := latr.ExperimentOptions{Quick: *quick, Seed: *seed, CheckInvariants: *check, Workers: *parallel}

	ids := latr.Experiments()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	} else if !*ablations {
		// Default set: the paper's tables, figures and case studies,
		// without ablations.
		ids = latr.PaperExperiments()
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tbl, err := latr.RunExperiment(id, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		wall := time.Since(start).Seconds()
		fmt.Fprintf(stdout, "%v\n\n", tbl)
		fmt.Fprintf(stderr, "(wall time %.1fs)\n", wall)
		if *emitJSON {
			if err := writeJSON(tbl, o, wall); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}
