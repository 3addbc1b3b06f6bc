package harness

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

func mustSuite(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatalf("SuiteTest(%s): %v", name, err)
	}
	return test
}

// comparableJSON renders a result with the host-time and trace fields
// zeroed, so byte comparison covers exactly the deterministic payload.
func comparableJSON(t *testing.T, res *Litmus7Result) string {
	t.Helper()
	c := *res
	c.Wall = 0
	c.Trace = nil
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHistogramMatchesOutcomeKeyRendering(t *testing.T) {
	// The interned histogram must reproduce the OutcomeKey string format
	// exactly: recompute the histogram from the raw register files and
	// compare maps.
	test := mustSuite(t, "mp")
	cfg := sim.DefaultConfig().WithSeed(17)
	const n = 2000
	res, err := RunLitmus7(context.Background(), test, n, sim.ModeUser, cfg, Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.RunSynced(test, n, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	regs := make([][]int64, len(simRes.RegCounts))
	for iter := 0; iter < n; iter++ {
		for ti, rc := range simRes.RegCounts {
			regs[ti] = simRes.Regs[ti][iter*rc : (iter+1)*rc]
		}
		want[OutcomeKey(regs)]++
	}
	if !reflect.DeepEqual(res.Histogram, want) {
		t.Fatalf("interned histogram differs from OutcomeKey recomputation:\n got %v\nwant %v", res.Histogram, want)
	}
}

func TestLitmus7RunnerReuseMatchesFreshRun(t *testing.T) {
	test := mustSuite(t, "sb")
	ct, err := sim.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLitmus7Runner(ct, []litmus.Outcome{test.Target})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(23)
	first, err := lr.RunCtx(context.Background(), 800, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstJSON := comparableJSON(t, first)
	// Dirty the reused state with a different run, then repeat.
	if _, err := lr.RunCtx(context.Background(), 333, sim.ModeTimebase, sim.DefaultConfig().WithSeed(9)); err != nil {
		t.Fatal(err)
	}
	again, err := lr.RunCtx(context.Background(), 800, sim.ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := comparableJSON(t, again); got != firstJSON {
		t.Fatalf("reused Litmus7Runner diverged:\n got %s\nwant %s", got, firstJSON)
	}
	fresh, err := RunLitmus7(context.Background(), test, 800, sim.ModeUser, cfg, Litmus7Options{Outcomes: []litmus.Outcome{test.Target}})
	if err != nil {
		t.Fatal(err)
	}
	if got := comparableJSON(t, fresh); got != firstJSON {
		t.Fatalf("fresh RunLitmus7 differs from runner:\n got %s\nwant %s", got, firstJSON)
	}
}

func TestLitmus7RunnerSteadyStateAllocs(t *testing.T) {
	test := mustSuite(t, "sb")
	ct, err := sim.Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLitmus7Runner(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(4)
	if _, err := lr.RunCtx(context.Background(), 300, sim.ModeUser, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := lr.RunCtx(context.Background(), 300, sim.ModeUser, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state litmus7 run allocates %.1f times, want ≤ 2", avg)
	}
}

func TestLitmus7BatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	test := mustSuite(t, "mp")
	cfg := sim.DefaultConfig().WithSeed(13)
	outcomes := []litmus.Outcome{test.Target}
	for _, tc := range []struct{ n, workers, shards int }{
		{n: 901, workers: 3, shards: 3},
		// More workers than iterations: the batch clamps to one
		// iteration per worker.
		{n: 2, workers: 8, shards: 2},
	} {
		batch, err := RunLitmus7(context.Background(), test, tc.n, sim.ModeUser, cfg,
			Litmus7Options{Outcomes: outcomes, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		var merged *Litmus7Result
		for w := 0; w < tc.shards; w++ {
			lo, hi := tc.n*w/tc.shards, tc.n*(w+1)/tc.shards
			r, err := RunLitmus7(context.Background(), test, hi-lo, sim.ModeUser,
				cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)), Litmus7Options{Outcomes: outcomes})
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = r
			} else if err := merged.Merge(r); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := comparableJSON(t, batch), comparableJSON(t, merged); got != want {
			t.Fatalf("n=%d workers=%d: batch differs from %d merged derived serial runs:\n got %s\nwant %s",
				tc.n, tc.workers, tc.shards, got, want)
		}
	}
}

func TestPerpLEBatchEqualsMergedDerivedSerialRuns(t *testing.T) {
	test := mustSuite(t, "sb")
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(19)
	opts := PerpLEOptions{Heuristic: true, Exhaustive: true, ExhaustiveCap: 200}
	const n, workers = 700, 3
	batched := opts
	batched.Workers = workers
	batch, err := RunPerpLE(context.Background(), pt, counter, n, cfg, batched)
	if err != nil {
		t.Fatal(err)
	}
	var merged *PerpLEResult
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		r, err := RunPerpLE(context.Background(), pt, counter.Clone(), hi-lo, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = r
		} else if err := merged.Merge(r); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(batch.Heuristic, merged.Heuristic) ||
		!reflect.DeepEqual(batch.Exhaustive, merged.Exhaustive) ||
		batch.N != merged.N || batch.ExecTicks != merged.ExecTicks ||
		batch.ExhCountTicks != merged.ExhCountTicks || batch.HeurCountTicks != merged.HeurCountTicks {
		t.Fatalf("PerpLE batch differs from merged derived serial runs:\n got %+v\nwant %+v", batch, merged)
	}
}

func TestPerpLEBatchRejectsKeepBufs(t *testing.T) {
	test := mustSuite(t, "sb")
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	opts := PerpLEOptions{Heuristic: true, KeepBufs: true, Workers: 2}
	if _, err := RunPerpLE(context.Background(), pt, counter, 100, sim.DefaultConfig(), opts); err == nil {
		t.Fatal("expected KeepBufs + workers>1 to be rejected")
	}
	// One worker delegates to the serial path, where KeepBufs is fine.
	opts.Workers = 1
	res, err := RunPerpLE(context.Background(), pt, counter, 100, sim.DefaultConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bufs == nil {
		t.Fatal("one-worker batch dropped Bufs")
	}
}

func TestPerpLECountWorkersInvariant(t *testing.T) {
	test := mustSuite(t, "mp")
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(29)
	base := PerpLEOptions{Heuristic: true, Exhaustive: true, ExhaustiveCap: 150}
	serial, err := RunPerpLE(context.Background(), pt, counter.Clone(), 600, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.CountWorkers = 4
	fanned, err := RunPerpLE(context.Background(), pt, counter.Clone(), 600, cfg, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Heuristic, fanned.Heuristic) || !reflect.DeepEqual(serial.Exhaustive, fanned.Exhaustive) {
		t.Fatalf("CountWorkers changed counter results:\n serial %+v / %+v\n fanned %+v / %+v",
			serial.Heuristic, serial.Exhaustive, fanned.Heuristic, fanned.Exhaustive)
	}
}
