package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"perple/internal/axiom"
	"perple/internal/campaign"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
	"perple/internal/trace"
)

// campaignNewReps is how many times the traced set-up pass times
// campaign.New; campaign.new_s is the median.
const campaignNewReps = 5

// traceSetup replays set-up layer by layer: litmus.Parse of every corpus
// file, axiom.Analyze of every test, then campaign.New as a whole. It
// returns how many tests lie beyond the axiom checker's enumeration
// cutoff.
func (b *bench) traceSetup(tr *tracer) (tooLarge int, err error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return 0, err
	}
	var tests []*litmus.Test
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".litmus") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(b.dir, e.Name()))
		if err != nil {
			return 0, err
		}
		var t *litmus.Test
		if err := tr.timed("litmus.parse", 0, func() (err error) {
			t, err = litmus.Parse(string(src))
			return err
		}); err != nil {
			return 0, fmt.Errorf("%s: %w", e.Name(), err)
		}
		tests = append(tests, t)
	}
	for _, t := range tests {
		err := tr.timed("axiom.analyze", 0, func() error {
			_, err := axiom.Analyze(t)
			return err
		})
		var tle *axiom.TooLargeError
		switch {
		case errors.As(err, &tle):
			tooLarge++
		case err != nil:
			return 0, fmt.Errorf("classifying %s: %w", t.Name, err)
		}
	}
	for i := 0; i < campaignNewReps; i++ {
		if err := tr.timed("campaign.new", 0, func() error {
			_, err := campaign.New(b.spec)
			return err
		}); err != nil {
			return 0, err
		}
	}
	return tooLarge, nil
}

// replayStats is what the job replay counted.
type replayStats struct {
	ticks                 int64 // simulated execution ticks (synced + perpetual)
	histKeys              int64 // histogram keys over every litmus7 job
	witnesses, violations int64
	frames                int64
	exhCounts, factorized int64 // exhaustive counts, and those the factorized pass answered
	mismatches            []error
}

func (s *replayStats) mismatch(job campaign.Job, format string, args ...any) {
	s.mismatches = append(s.mismatches, fmt.Errorf("replay of job %d (%s/%s shard %d): %s",
		job.ID, job.Test, job.Tool, job.Shard, fmt.Sprintf(format, args...)))
}

// replay re-executes a traced repetition's job list single-threaded
// through each layer's public functions, the way the campaign's job
// runner composes them, recording a campaign.job span per job with one
// child per layer call. Every replayed job must reproduce the captured
// result's ticks and target count exactly.
//
// The harness's histogram observe is not separately callable, so a
// litmus7 job is replayed twice: once as sim.Runner.RunSyncedCtx alone
// (a sim.synced span under a replay.probe root) and once as
// harness.Litmus7Runner.RunCtx (a harness.litmus7 span under the job),
// which runs the same simulation and then observes it.
// harness.observe_s is the difference. Only the second run counts as
// job time.
func (b *bench) replay(ctx context.Context, tr *tracer, r *rep) (*replayStats, error) {
	camp, err := campaign.New(b.spec)
	if err != nil {
		return nil, err
	}
	spec := camp.Spec
	tests, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*litmus.Test, len(tests))
	for _, t := range tests {
		byName[t.Name] = t
	}
	st := &replayStats{}
	for _, job := range camp.Jobs() {
		jr := r.results[job.ID]
		if jr == nil {
			return nil, fmt.Errorf("replay: no captured result for job %d", job.ID)
		}
		test := byName[job.Test]
		tool := job.Tool
		if strings.HasPrefix(tool, "perple-") && test.Target.HasMemConds() {
			tool = "litmus7-user" // the campaign's fallback for non-convertible targets
		}
		if strings.HasPrefix(tool, "litmus7-") {
			err = replayLitmus7(ctx, tr, st, job, jr, test, tool, spec.TraceVerifyEvery())
		} else {
			err = replayPerpLE(ctx, tr, st, job, jr, test, tool, spec.ExhCap)
		}
		if err != nil {
			return nil, fmt.Errorf("replay of job %d: %w", job.ID, err)
		}
	}
	return st, nil
}

func replayLitmus7(ctx context.Context, tr *tracer, st *replayStats, job campaign.Job, jr *campaign.JobResult, test *litmus.Test, tool string, stride int) error {
	mode, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
	if err != nil {
		return err
	}
	cfg, err := sim.Preset(job.Preset)
	if err != nil {
		return err
	}
	// A one-worker harness batch runs worker 0's derived seed.
	cfg = cfg.WithSeed(sim.WorkerSeed(job.Seed, 0))
	cfg.WitnessEvery = stride

	var ct *sim.CompiledTest
	var synced *sim.SyncedResult
	probe := tr.begin("replay.probe", 0)
	err = tr.timed("sim.synced", probe, func() (err error) {
		if ct, err = sim.Compile(test); err != nil {
			return err
		}
		synced, err = sim.NewRunner(ct).RunSyncedCtx(ctx, job.N, mode, cfg)
		return err
	})
	tr.end(probe)
	if err != nil {
		return err
	}

	id := tr.begin("campaign.job", 0)
	defer tr.end(id)
	var res *harness.Litmus7Result
	if err := tr.timed("harness.litmus7", id, func() error {
		ct, err := sim.Compile(test)
		if err != nil {
			return err
		}
		lr, err := harness.NewLitmus7Runner(ct, nil)
		if err != nil {
			return err
		}
		res, err = lr.RunCtx(ctx, job.N, mode, cfg)
		return err
	}); err != nil {
		return err
	}
	if stride > 0 {
		if err := tr.timed("trace.verify", id, func() error {
			checker, err := trace.NewCheckerLayout(ct.WitnessLayout(), memmodel.TSO)
			if err != nil {
				return err
			}
			w := synced.Witnesses
			for s := 0; s < w.Slots; s++ {
				v, err := checker.Check(w, s)
				if err != nil {
					return err
				}
				st.witnesses++
				if v != nil {
					st.violations++
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	st.ticks += synced.Ticks
	st.histKeys += int64(len(res.Histogram))
	if synced.Ticks != jr.Ticks || res.Ticks != jr.Ticks {
		st.mismatch(job, "ticks sim %d, harness %d, campaign %d", synced.Ticks, res.Ticks, jr.Ticks)
	}
	if res.TargetCount != jr.Target {
		st.mismatch(job, "target %d, campaign %d", res.TargetCount, jr.Target)
	}
	return nil
}

func replayPerpLE(ctx context.Context, tr *tracer, st *replayStats, job campaign.Job, jr *campaign.JobResult, test *litmus.Test, tool string, exhCap int) error {
	cfg, err := sim.Preset(job.Preset)
	if err != nil {
		return err
	}
	cfg = cfg.WithSeed(job.Seed)
	id := tr.begin("campaign.job", 0)
	defer tr.end(id)

	var pt *core.PerpetualTest
	var counter *core.Counter
	if err := tr.timed("core.convert", id, func() (err error) {
		if pt, err = core.Convert(test); err != nil {
			return err
		}
		counter, err = core.NewTargetCounter(pt)
		return err
	}); err != nil {
		return err
	}
	var run *sim.PerpetualResult
	if err := tr.timed("sim.perpetual", id, func() (err error) {
		run, err = sim.RunPerpetualCtx(ctx, pt, job.N, cfg)
		return err
	}); err != nil {
		return err
	}

	var cr *core.CountResult
	var frameTick float64
	switch tool {
	case "perple-heur":
		frameTick = cfg.HeurFrameTick
		err = tr.timed("core.count_heur", id, func() (err error) {
			cr, err = counter.CountHeuristicParallel(ctx, run.Bufs, 1)
			return err
		})
	case "perple-exh":
		frameTick = cfg.ExhFrameTick
		bufs := run.Bufs
		if exhCap > 0 && exhCap < job.N {
			bufs = truncateBufs(pt, bufs, exhCap)
		}
		st.exhCounts++
		err = tr.timed("core.count_exh", id, func() error {
			// The same choice CountExhaustiveAuto makes, taken here so the
			// factorized hit rate is visible.
			res, ok, err := counter.CountFactorized(bufs)
			if err != nil {
				return err
			}
			if ok {
				st.factorized++
				cr = res
				return nil
			}
			cr, err = counter.CountExhaustiveParallel(ctx, bufs, 1)
			return err
		})
	default:
		return fmt.Errorf("unknown tool %q", tool)
	}
	if err != nil {
		return err
	}
	st.ticks += run.Ticks
	st.frames += cr.Frames
	ticks := run.Ticks + int64(float64(cr.Frames)*frameTick*float64(len(counter.Outcomes())))
	if ticks != jr.Ticks || cr.Frames != jr.Frames {
		st.mismatch(job, "ticks %d frames %d, campaign %d and %d", ticks, cr.Frames, jr.Ticks, jr.Frames)
	}
	if cr.Counts[0] != jr.Target {
		st.mismatch(job, "target %d, campaign %d", cr.Counts[0], jr.Target)
	}
	return nil
}

// truncateBufs views the first n iterations of a perpetual run, as the
// harness does under an exhaustive-count cap.
func truncateBufs(pt *core.PerpetualTest, bs *core.BufSet, n int) *core.BufSet {
	out := &core.BufSet{N: n, Bufs: make([][]int64, len(bs.Bufs))}
	for t, b := range bs.Bufs {
		if b != nil {
			out.Bufs[t] = b[:pt.Reads[t]*n]
		}
	}
	return out
}

// replayMerge folds the captured results into fresh totals in job order
// (one campaign.merge span) and checks that the canonical document
// matches the repetition's.
func replayMerge(tr *tracer, r *rep) error {
	ids := sortedIDs(r.results)
	res := campaign.NewResults()
	tr.timed("campaign.merge", 0, func() error {
		for _, id := range ids {
			res.Add(r.results[id])
		}
		return nil
	})
	canon, err := res.CanonicalJSON()
	if err != nil {
		return err
	}
	if d := digest(canon); d != r.digest {
		return fmt.Errorf("replayed merge digest %s differs from the campaign's %s", d, r.digest)
	}
	return nil
}

// replayWire encodes and decodes every captured result as a one-result
// PWB1 completion upload, the batch shape a Parallel-1 worker sends.
func replayWire(tr *tracer, r *rep) error {
	var buf []byte
	for _, id := range sortedIDs(r.results) {
		req := &campaign.CompleteRequest{
			Version: campaign.ProtocolVersion,
			Worker:  "replay",
			Results: []campaign.WorkerResult{{LeaseID: int64(id + 1), Result: r.results[id]}},
		}
		tr.timed("harness.wire.encode", 0, func() error {
			buf = harness.EncodeWireBinary(buf[:0], req)
			return nil
		})
		var back campaign.CompleteRequest
		if err := tr.timed("harness.wire.decode", 0, func() error {
			return harness.DecodeWireBinary(buf, &back, 0)
		}); err != nil {
			return fmt.Errorf("wire replay of job %d: %w", id, err)
		}
	}
	return nil
}

func sortedIDs(m map[int]*campaign.JobResult) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
