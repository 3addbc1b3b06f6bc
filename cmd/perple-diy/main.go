// Command perple-diy is a diy-style cycle-based litmus test generator: it
// synthesizes a litmus test from a relaxation-cycle specification,
// classifies its target under SC, x86-TSO and PSO, and can run it under
// both harnesses or convert it to its perpetual counterpart — the full
// generate → convert → run pipeline the paper's Section VIII describes.
//
// Usage:
//
//	perple-diy -cycle "PodWR Fre PodWR Fre"          # sb
//	perple-diy -cycle "PodWW Rfe PodRR Fre" -run 10000
//	perple-diy -cycle "Rfe PodRR Fre Rfe PodRR Fre" -name my-iriw -o out/
//	perple-diy -edges                                 # list edge kinds
//
// Exit status: 0 success, 1 conversion, run or write error, 2 usage
// (including a cycle that does not parse into a test).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perple/internal/axiom"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-diy", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cycle := fl.String("cycle", "", `relaxation cycle, e.g. "PodWR Fre PodWR Fre"`)
	name := fl.String("name", "generated", "test name")
	runN := fl.Int("run", 0, "also run the test for N iterations (PerpLE heuristic + litmus7 timebase)")
	outDir := fl.String("o", "", "also write the Converter's artifacts to this directory")
	seed := fl.Int64("seed", 1, "simulator seed for -run")
	listEdges := fl.Bool("edges", false, "list the supported cycle edges and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "perple-diy: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perple-diy: %v\n", err)
		return 1
	}

	if *listEdges {
		fmt.Fprint(stdout, edgeHelp)
		return 0
	}
	if *cycle == "" {
		return usage(errors.New("pass -cycle (or -edges for help)"))
	}
	edges, err := litmus.ParseCycle(*cycle)
	if err != nil {
		return usage(err)
	}
	test, err := litmus.FromCycle(*name, edges...)
	if err != nil {
		return usage(err)
	}
	fmt.Fprintln(stdout, litmus.Format(test))

	// A cycle beyond the exact-enumeration cutoff gets the checker's
	// refusal as its verdict, as in perple-lint, never a partial answer.
	for _, m := range memmodel.Models {
		allowed, err := axiom.Allowed(test, test.Target, m, axiom.DefaultLimits())
		var tle *axiom.TooLargeError
		switch {
		case errors.As(err, &tle):
			fmt.Fprintf(stdout, "target under %-3v: %v\n", m, err)
		case err != nil:
			return fail(err)
		default:
			fmt.Fprintf(stdout, "target under %-3v: %v\n", m, verdict(allowed))
		}
	}

	convertible := !test.Target.HasMemConds()
	var pt *core.PerpetualTest
	if convertible {
		if pt, err = core.Convert(test); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "perpetual conversion: ok (T_L = %d)\n", pt.TL())
	} else {
		fmt.Fprintln(stdout, "perpetual conversion: not convertible (final-state conditions; run under litmus7)")
	}

	if *outDir != "" {
		if !convertible {
			return usage(errors.New("-o requires a convertible test"))
		}
		po, err := core.ConvertOutcome(pt, test.Target)
		if err != nil {
			return fail(err)
		}
		files := core.GeneratedFiles(pt, []*core.PerpetualOutcome{po})
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
		for _, fname := range core.SortedFileNames(files) {
			path := filepath.Join(*outDir, fname)
			if err := os.WriteFile(path, []byte(files[fname]), 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	}

	if *runN > 0 {
		cfg := sim.DefaultConfig().WithSeed(*seed)
		lres, err := harness.RunLitmus7(context.Background(), test, *runN, sim.ModeTimebase,
			cfg, harness.Litmus7Options{})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\n%d iterations on the simulated TSO machine:\n", *runN)
		fmt.Fprintf(stdout, "  litmus7 timebase: %d target occurrences in %d ticks\n", lres.TargetCount, lres.Ticks)
		if convertible {
			counter, err := core.NewTargetCounter(pt)
			if err != nil {
				return fail(err)
			}
			pres, err := harness.RunPerpLE(context.Background(), pt, counter, *runN,
				cfg, harness.PerpLEOptions{Heuristic: true})
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "  PerpLE heuristic: %d target occurrences in %d ticks\n",
				pres.Heuristic.Counts[0], pres.TotalTicksHeuristic())
		}
	}
	return 0
}

func verdict(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "forbidden"
}

const edgeHelp = `external edges (move to a new thread, stay on one location):
  Rfe    cross-thread read-from
  Fre    cross-thread from-read
  Wse    cross-thread write-serialization (adds a final-state pin)
program-order edges (stay on the thread, change location):
  PodWR  store;load   — relaxed by TSO and PSO
  PodWW  store;store  — relaxed by PSO
  PodRR  load;load    — never relaxed here
  PodRW  load;store   — never relaxed here
  FencedWR/RR/RW/WW   — the same with MFENCE, never relaxed
`
