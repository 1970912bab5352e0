// Command latr-trace emits the operation timelines of Figures 2 and 3:
// what each core does, nanosecond by nanosecond, while a page is unmapped
// (munmap) or sampled for NUMA migration, under Linux and under LATR.
//
// Usage:
//
//	latr-trace -scenario munmap
//	latr-trace -scenario autonuma
//	latr-trace -scenario munmap -perfetto > fig2.json   # load in ui.perfetto.dev
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"latr"
)

// run is the testable body of the command: it parses args, writes the
// timeline to stdout, and returns the process exit code.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("latr-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "munmap", "scenario: munmap (Fig 2) or autonuma (Fig 3)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	perfetto := fs.Bool("perfetto", false, "emit Chrome trace-event JSON (load in ui.perfetto.dev) instead of the text timeline")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	o := latr.ExperimentOptions{Quick: true, Seed: *seed}
	var render func(latr.ExperimentOptions) (string, error)
	switch *scenario {
	case "munmap":
		if *perfetto {
			render = latr.Fig2Perfetto
		} else {
			fmt.Fprint(stdout, latr.Fig2Timeline(o))
		}
	case "autonuma":
		if *perfetto {
			render = latr.Fig3Perfetto
		} else {
			fmt.Fprint(stdout, latr.Fig3Timeline(o))
		}
	default:
		fmt.Fprintf(stderr, "unknown scenario %q (want munmap or autonuma)\n", *scenario)
		return 1
	}
	if render != nil {
		out, err := render(o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, out)
	}
	return 0
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}
