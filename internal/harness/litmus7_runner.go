package harness

import (
	"context"
	"fmt"
	"time"

	"perple/internal/litmus"
	"perple/internal/sim"
	"perple/internal/trace"
)

// Litmus7Runner executes litmus7-style runs of one compiled test on a
// reusable sim.Runner with a reusable interned histogram: outcome
// conditions are compiled once, the tally loop interns register files
// instead of rendering string keys, and the result struct (including
// the Histogram map and OutcomeCounts slice) is recycled, so repeated
// runs allocate nothing in steady state. A Litmus7Runner is not safe
// for concurrent use; batched runs give each worker its own over the
// shared sim.CompiledTest.
//
// The returned Litmus7Result aliases the runner's state and is valid
// only until the next RunCtx call. RunLitmus7 returns results the
// caller owns by building fresh runners per call.
type Litmus7Runner struct {
	ct       *sim.CompiledTest
	runner   *sim.Runner
	target   compiledOutcome
	outcomes []compiledOutcome
	hist     *outcomeHist
	res      Litmus7Result

	// regOnly is set when the target and every extra outcome read only
	// registers; wordOff[t] is thread t's offset into an interned
	// histogram row. Together they let RunCtx tally conditions once per
	// distinct outcome instead of once per iteration.
	regOnly bool
	wordOff []int

	// tv/checker drive optional witness-trace verification; see
	// SetTraceVerify. checker is nil when verification is off.
	tv      TraceVerify
	checker *trace.Checker
}

// NewLitmus7Runner builds a reusable litmus7-style runner over a
// compiled test, pre-compiling the target and the optional extra
// outcomes of interest.
func NewLitmus7Runner(ct *sim.CompiledTest, outcomes []litmus.Outcome) (*Litmus7Runner, error) {
	t := ct.Test()
	locIdx := make(map[litmus.Loc]int, len(ct.Locs()))
	for i, l := range ct.Locs() {
		locIdx[l] = i
	}
	target, err := compileOutcome(t, t.Target, ct.RegCounts(), locIdx)
	if err != nil {
		return nil, err
	}
	lr := &Litmus7Runner{
		ct:       ct,
		runner:   sim.NewRunner(ct),
		target:   target,
		outcomes: make([]compiledOutcome, len(outcomes)),
		hist:     newOutcomeHist(ct.RegCounts()),
	}
	lr.regOnly = target.regOnly()
	for i, o := range outcomes {
		if lr.outcomes[i], err = compileOutcome(t, o, ct.RegCounts(), locIdx); err != nil {
			return nil, err
		}
		lr.regOnly = lr.regOnly && lr.outcomes[i].regOnly()
	}
	lr.wordOff = make([]int, len(ct.RegCounts()))
	off := 0
	for ti, rc := range ct.RegCounts() {
		lr.wordOff[ti] = off
		off += rc
	}
	lr.res = Litmus7Result{
		Test:          t,
		Histogram:     map[string]int64{},
		OutcomeCounts: make([]int64, len(outcomes)),
	}
	return lr, nil
}

// RunCtx executes n iterations under the given synchronization mode;
// see RunLitmus7 for cancellation semantics.
func (lr *Litmus7Runner) RunCtx(ctx context.Context, n int, mode sim.Mode, cfg sim.Config) (*Litmus7Result, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	if lr.checker != nil {
		// Witness recording is a pure observer of the machine, so the
		// override cannot perturb the run (the sim determinism suite
		// asserts this).
		cfg.WitnessEvery = lr.tv.Every
	}
	simRes, err := lr.runner.RunSyncedCtx(ctx, n, mode, cfg)
	if err != nil {
		return nil, err
	}
	res := &lr.res
	res.Mode = mode
	res.N = n
	res.TargetCount = 0
	clear(res.OutcomeCounts)
	clear(res.Histogram)
	res.Ticks = simRes.Ticks
	res.Wall = 0
	res.Trace = simRes.Trace
	res.TracesVerified, res.TraceViolations, res.TraceVerifyNs = 0, 0, 0
	res.TraceReports = res.TraceReports[:0]
	if lr.checker != nil {
		if err := lr.verifyWitnesses(ctx, simRes.Witnesses, res); err != nil {
			return nil, err
		}
	}
	lr.hist.resetCounts()
	done := ctx.Done()
	for lo := 0; lo < n; lo += 4096 {
		if done != nil {
			select {
			case <-done:
				return nil, fmt.Errorf("harness: litmus7 tally aborted: %w", ctx.Err())
			default:
			}
		}
		hi := lo + 4096
		if hi > n {
			hi = n
		}
		if !lr.regOnly {
			// A memory condition depends on the iteration's memory cell,
			// which the histogram does not intern: match per iteration.
			for iter := lo; iter < hi; iter++ {
				if lr.target.match(simRes, iter) {
					res.TargetCount++
				}
				for i := range lr.outcomes {
					if lr.outcomes[i].match(simRes, iter) {
						res.OutcomeCounts[i]++
					}
				}
			}
		}
		lr.hist.observeBlock(simRes, lo, hi)
	}
	if lr.regOnly {
		// Register-only conditions are a function of the interned row, so
		// tally per distinct outcome instead of per iteration.
		for id, c := range lr.hist.counts {
			if c == 0 {
				continue
			}
			w := lr.hist.row(id)
			if lr.target.matchWords(w, lr.wordOff) {
				res.TargetCount += c
			}
			for i := range lr.outcomes {
				if lr.outcomes[i].matchWords(w, lr.wordOff) {
					res.OutcomeCounts[i] += c
				}
			}
		}
	}
	lr.hist.materializeInto(res.Histogram)
	res.Wall = time.Since(start) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return res, nil
}
