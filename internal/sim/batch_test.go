package sim_test

import (
	"context"
	"reflect"
	"testing"

	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// Batched synced runs are split by harness: worker w of k runs
// iterations [n·w/k, n·(w+1)/k) on its own machine seeded with
// sim.WorkerSeed(cfg.Seed, w). These tests pin that contract against raw
// simulator runs, so a batch stays k independent sim runs whatever the
// layer above does with them.

func suiteTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatalf("SuiteTest(%s): %v", name, err)
	}
	return test
}

// derivedSerial runs the k shards of an n-iteration batch as separate
// serial simulator runs with the derived seeds and returns their summed
// outcome histogram, iteration count and simulated ticks.
func derivedSerial(t *testing.T, test *litmus.Test, n, k int, cfg sim.Config) (hist map[string]int64, total int, ticks int64) {
	t.Helper()
	hist = map[string]int64{}
	for w := 0; w < k; w++ {
		res, err := sim.RunSynced(test, n*(w+1)/k-n*w/k, sim.ModeUser, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
		if err != nil {
			t.Fatal(err)
		}
		regs := make([][]int64, len(res.RegCounts))
		for iter := 0; iter < res.N; iter++ {
			for ti, rc := range res.RegCounts {
				regs[ti] = res.Regs[ti][iter*rc : (iter+1)*rc]
			}
			hist[harness.OutcomeKey(regs)]++
		}
		total += res.N
		ticks += res.Ticks
	}
	return hist, total, ticks
}

// checkBatch runs an n-iteration batch on the given worker count and
// requires it to equal the wantShards derived serial runs.
func checkBatch(t *testing.T, test *litmus.Test, n, workers, wantShards int, cfg sim.Config) {
	t.Helper()
	batch, err := harness.RunLitmus7(context.Background(), test, n, sim.ModeUser, cfg, harness.Litmus7Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	hist, total, ticks := derivedSerial(t, test, n, wantShards, cfg)
	if total != n || batch.N != n {
		t.Fatalf("shards cover %d iterations and batch reports %d, want %d", total, batch.N, n)
	}
	if !reflect.DeepEqual(batch.Histogram, hist) || batch.Ticks != ticks {
		t.Fatalf("n=%d workers=%d: batch differs from %d derived serial runs:\n got %v (%d ticks)\nwant %v (%d ticks)",
			n, workers, wantShards, batch.Histogram, batch.Ticks, hist, ticks)
	}
}

func TestBatchWorker0MatchesSerial(t *testing.T) {
	for _, seed := range []int64{0, 1, 11, -7, 1 << 40} {
		if got := sim.WorkerSeed(seed, 0); got != seed {
			t.Fatalf("WorkerSeed(%d, 0) = %d, want the caller's seed", seed, got)
		}
	}
	checkBatch(t, suiteTest(t, "sb"), 400, 1, 1, sim.DefaultConfig().WithSeed(11))
}

func TestBatchShardsMatchDerivedSerialRuns(t *testing.T) {
	checkBatch(t, suiteTest(t, "sb"), 301, 3, 3, sim.DefaultConfig().WithSeed(5))
}

func TestBatchClampsWorkersToN(t *testing.T) {
	// Eight workers over two iterations clamp to two one-iteration
	// shards seeded as workers 0 and 1.
	checkBatch(t, suiteTest(t, "sb"), 2, 8, 2, sim.DefaultConfig())
}
