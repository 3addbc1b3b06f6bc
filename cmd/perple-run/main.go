// Command perple-run executes one litmus test on the simulated x86-TSO
// machine under a chosen tool: PerpLE with the exhaustive or heuristic
// outcome counter, or the litmus7-equivalent runner in any of its five
// synchronization modes.
//
// Usage:
//
//	perple-run -test sb                               # PerpLE heuristic, 10k iterations
//	perple-run -test sb -tool perple-exh -n 2000
//	perple-run -test iriw -tool litmus7-timebase -n 100000
//	perple-run -file my.litmus -tool litmus7-user
//	perple-run -test sb -outcomes all                 # count the whole outcome space
//	perple-run -test sb -skew                         # also print the skew histogram
//
// Exit status: 0 success, 1 run error, 2 usage (including a test that
// cannot be loaded).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
	"perple/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-run", flag.ContinueOnError)
	fl.SetOutput(stderr)
	testName := fl.String("test", "", "suite test name")
	file := fl.String("file", "", "litmus7-style test file")
	tool := fl.String("tool", "perple-heur", "perple-heur, perple-exh, or litmus7-{user,userfence,pthread,timebase,none}")
	n := fl.Int("n", 10000, "iterations")
	seed := fl.Int64("seed", 1, "simulator seed")
	outcomes := fl.String("outcomes", "target", "outcomes of interest: target or all")
	skew := fl.Bool("skew", false, "print the thread-skew histogram (PerpLE tools only)")
	exhCap := fl.Int("exhcap", 0, "iteration cap for the exhaustive counter (0 = uncapped)")
	model := fl.String("model", "TSO", "simulated machine's memory system: TSO or PSO (fault injection)")
	trace := fl.Int("trace", 0, "record and print the last N machine events (stores, drains, loads, fences)")
	preset := fl.String("preset", "default", "machine preset (see internal/sim Presets)")
	workers := fl.Int("workers", 1, "worker goroutines for the outcome counter (0 = GOMAXPROCS); counts do not depend on it")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perple-run: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perple-run: %v\n", err)
		return 1
	}

	if (*testName == "") == (*file == "") {
		return usage("pass exactly one of -test <name> or -file <path>")
	}
	var test *litmus.Test
	var err error
	if *testName != "" {
		test, err = litmus.SuiteTest(*testName)
	} else {
		test, err = litmus.ParseFile(*file)
	}
	if err != nil {
		return usage("%v", err)
	}
	cfg, err := sim.Preset(*preset)
	if err != nil {
		return usage("%v", err)
	}
	cfg = cfg.WithSeed(*seed)
	switch strings.ToUpper(*model) {
	case "TSO":
	case "PSO":
		cfg.Relaxation = memmodel.PSO
	default:
		return usage("unknown -model %q (want TSO or PSO)", *model)
	}
	cfg.TraceSize = *trace
	if *workers < 0 {
		return usage("-workers must be at least 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	var ooi []litmus.Outcome
	switch *outcomes {
	case "target":
		ooi = []litmus.Outcome{test.Target}
	case "all":
		ooi = test.AllOutcomes()
	default:
		return usage("unknown -outcomes %q (want target or all)", *outcomes)
	}

	if strings.HasPrefix(*tool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(*tool, "litmus7-"))
		if err != nil {
			return usage("%v", err)
		}
		res, err := harness.RunLitmus7(context.Background(), test, *n, mode, cfg, harness.Litmus7Options{Outcomes: ooi})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "litmus7 %s mode, %d iterations:\n\n", mode, *n)
		fmt.Fprint(stdout, harness.FormatLitmus7Report(res))
		if *trace > 0 {
			fmt.Fprintf(stdout, "\nmachine trace (last %d events):\n%s", *trace, res.Trace.String())
		}
		if *outcomes == "all" {
			fmt.Fprintln(stdout, "\noutcomes of interest:")
			tb := stats.NewTable("outcome", "occurrences", "rate/Mtick")
			for i, o := range ooi {
				tb.AddRow(o.String(), res.OutcomeCounts[i], stats.Rate(res.OutcomeCounts[i], res.Ticks)*1e6)
			}
			fmt.Fprint(stdout, tb.String())
		}
		return 0
	}

	if *tool != "perple-heur" && *tool != "perple-exh" {
		return usage("unknown tool %q", *tool)
	}
	pt, err := core.Convert(test)
	if err != nil {
		return fail(err)
	}
	pos := make([]*core.PerpetualOutcome, len(ooi))
	for i, o := range ooi {
		if pos[i], err = core.ConvertOutcome(pt, o); err != nil {
			return fail(err)
		}
	}
	counter := core.NewCounter(pt, pos)
	opts := harness.PerpLEOptions{KeepBufs: *skew, CountWorkers: *workers}
	if *workers == 0 {
		opts.CountWorkers = runtime.GOMAXPROCS(0)
	}
	if *tool == "perple-exh" {
		opts.Exhaustive = true
		opts.ExhaustiveCap = *exhCap
	} else {
		opts.Heuristic = true
	}
	res, err := harness.RunPerpLE(context.Background(), pt, counter, *n, cfg, opts)
	if err != nil {
		return fail(err)
	}

	cr := res.Heuristic
	total, wall := res.TotalTicksHeuristic(), res.WallExec+res.WallHeur
	if *tool == "perple-exh" {
		cr = res.Exhaustive
		total, wall = res.TotalTicksExhaustive(), res.WallExec+res.WallExh
		if res.ExhaustiveN < *n {
			fmt.Fprintf(stdout, "note: exhaustive counter examined the first %d of %d iterations\n", res.ExhaustiveN, *n)
		}
	}
	fmt.Fprintf(stdout, "test %s, PerpLE (%s), %d iterations, T_L=%d\n", test.Name, *tool, *n, pt.TL())
	fmt.Fprintf(stdout, "simulated runtime: %d ticks (execution %d + counting %d); host %v\n",
		total, res.ExecTicks, total-res.ExecTicks, wall.Round(10e3))
	fmt.Fprintf(stdout, "frames examined: %d\n\n", cr.Frames)
	tb := stats.NewTable("perpetual outcome of interest", "occurrences", "rate/Mtick")
	for i, po := range pos {
		label := po.Orig.String()
		if po.Unsatisfiable {
			label += " (unsatisfiable)"
		}
		tb.AddRow(label, cr.Counts[i], stats.Rate(cr.Counts[i], total)*1e6)
	}
	fmt.Fprint(stdout, tb.String())

	if *trace > 0 {
		fmt.Fprintf(stdout, "\nmachine trace (last %d events):\n%s", *trace, res.Trace.String())
	}

	if *skew {
		samples := harness.MeasureSkew(pt, res.Bufs)
		vals := harness.SkewValues(samples, -1, -1)
		if len(vals) == 0 {
			fmt.Fprintln(stdout, "\nno skew samples (no cross-thread reads decoded)")
			return 0
		}
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		width := (max - min) / 30
		if width < 1 {
			width = 1
		}
		h, err := stats.NewHistogram(min, max, width)
		if err != nil {
			return fail(err)
		}
		h.AddAll(vals)
		fmt.Fprintf(stdout, "\nthread skew (%d samples, range [%d, %d]):\n%s", len(vals), min, max, h.Render(50))
	}
	return 0
}
