package sim

import (
	"reflect"
	"testing"

	"perple/internal/litmus"
)

func sbTest(t *testing.T) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatalf("SuiteTest(sb): %v", err)
	}
	return test
}

// cloneSynced deep-copies a result so it survives runner reuse.
func cloneSynced(res *SyncedResult) *SyncedResult {
	out := *res
	out.Mem = append([]int64(nil), res.Mem...)
	out.Regs = make([][]int64, len(res.Regs))
	for i, r := range res.Regs {
		out.Regs[i] = append([]int64(nil), r...)
	}
	return &out
}

func TestRunnerReuseDeterministic(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(42)
	first, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cloneSynced(first)
	// Interleave a differently-shaped run to dirty every reused array.
	if _, err := r.RunSynced(123, ModeNone, DefaultConfig().WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	again, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Regs, again.Regs) || !reflect.DeepEqual(snap.Mem, again.Mem) || snap.Ticks != again.Ticks {
		t.Fatal("rerun on a reused Runner differs from its first run")
	}
}

func TestRunnerMatchesPackageRun(t *testing.T) {
	test := sbTest(t)
	cfg := DefaultConfig().WithSeed(99)
	for _, mode := range []Mode{ModeUser, ModeUserFence, ModePthread, ModeTimebase, ModeNone} {
		fresh, err := RunSynced(test, 300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ct, err := Compile(test)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := NewRunner(ct).RunSynced(300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(fresh.Regs, reused.Regs) || fresh.Ticks != reused.Ticks {
			t.Fatalf("%v: Runner result differs from RunSynced", mode)
		}
	}
}

func TestRunnerSteadyStateAllocs(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(3)
	// Warm up so every backing array reaches steady-state capacity.
	if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state Runner run allocates %.1f times, want ≤ 2", avg)
	}
}

func TestPerpetualRunnerReuseDeterministic(t *testing.T) {
	pt := mustPerp(t, "sb")
	cp, err := CompilePerpetual(pt)
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerpetualRunner(cp)
	cfg := DefaultConfig().WithSeed(21)
	first, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(77, DefaultConfig().WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	again, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Bufs, again.Bufs) || first.Ticks != again.Ticks {
		t.Fatal("rerun on a reused PerpetualRunner differs from its first run")
	}
	fresh, err := RunPerpetual(pt, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Bufs, again.Bufs) || fresh.Ticks != again.Ticks {
		t.Fatal("PerpetualRunner differs from RunPerpetual")
	}
}
