package campaign

import (
	"context"
	"fmt"
	"strings"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// runJob executes one shard end to end: it resolves the tool (PerpLE
// falls back to litmus7-user for non-convertible targets, as Section
// VII-G prescribes), seeds the simulator with the
// job's deterministic shard seed, runs, and extracts the mergeable
// result. Cancellation propagates into the simulated run and the
// counters through ctx.
func runJob(ctx context.Context, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
	cfg, err := sim.Preset(job.Preset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithSeed(job.Seed)

	jr := &JobResult{
		JobID:  job.ID,
		Test:   job.Test,
		Tool:   job.Tool,
		Preset: job.Preset,
		Shard:  job.Shard,
		N:      job.N,
		Seed:   job.Seed,
	}

	tool, note := convertibleTool(job.Tool, test)
	jr.Note = note

	if strings.HasPrefix(tool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
		if err != nil {
			return nil, err
		}
		res, err := harness.RunLitmus7(ctx, test, job.N, mode, cfg, harness.Litmus7Options{
			Workers: spec.IntraWorkers,
			Verify:  harness.TraceVerify{Every: spec.TraceVerifyEvery()},
		})
		if err != nil {
			return nil, err
		}
		jr.Target = res.TargetCount
		jr.Ticks = res.Ticks
		jr.Histogram = res.Histogram
		jr.TracesVerified = res.TracesVerified
		jr.TraceViolations = res.TraceViolations
		jr.TraceReports = res.TraceReports
		jr.TraceVerifyNs = res.TraceVerifyNs
		return jr, nil
	}

	// PerpLE tools run perpetual tests with no per-iteration rf/co
	// witness, so TraceVerify does not apply to them. The skip is silent:
	// a Note would enter Results.Groups and break the verified-vs-
	// unverified byte-identity of the canonical document.

	pt, err := core.Convert(test)
	if err != nil {
		return nil, err
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return nil, err
	}
	// The batch is already IntraWorkers-way and each worker counts its
	// own slice, so CountWorkers stays serial: fanning out again would put
	// IntraWorkers² goroutines on the count.
	opts := harness.PerpLEOptions{Workers: spec.IntraWorkers}
	switch tool {
	case "perple-heur":
		opts.Heuristic = true
	case "perple-exh":
		opts.Exhaustive = true
		if spec.ExhCap > 0 {
			opts.ExhaustiveCap = spec.ExhCap
		}
	default:
		return nil, fmt.Errorf("campaign: unknown tool %q", tool)
	}
	res, err := harness.RunPerpLE(ctx, pt, counter, job.N, cfg, opts)
	if err != nil {
		return nil, err
	}
	if tool == "perple-exh" {
		jr.Target = res.Exhaustive.Counts[0]
		jr.Ticks = res.TotalTicksExhaustive()
		jr.Frames = res.Exhaustive.Frames
		if res.ExhaustiveN < job.N {
			jr.Note = joinNotes(jr.Note, fmt.Sprintf("exh capped at %d", res.ExhaustiveN))
		}
		return jr, nil
	}
	jr.Target = res.Heuristic.Counts[0]
	jr.Ticks = res.TotalTicksHeuristic()
	jr.Frames = res.Heuristic.Frames
	return jr, nil
}

func joinNotes(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "; " + b
}
