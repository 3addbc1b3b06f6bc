package harness

import (
	"context"
	"testing"

	"perple/internal/analysis/hotpath"
	"perple/internal/sim"
)

// TestHotpathAllocs verifies this package's //perple:hotpath
// annotations (the outcomeHist interner) against a warmed
// Litmus7Runner: the whole tally loop — observeBlock, the hash probe,
// in-place row comparison, interning — must run allocation-free once
// the run's outcomes have been seen. TestLitmus7RunnerSteadyStateAllocs
// asserts the same property end to end; this sweep additionally pins
// the annotation/exerciser bijection so new hot functions cannot dodge
// coverage.
func TestHotpathAllocs(t *testing.T) {
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
	hotpath.Verify(t, ".", map[string]func(){
		"harness-litmus7-run": func() {
			if _, err := lr.RunCtx(context.Background(), 300, sim.ModeUser, cfg); err != nil {
				t.Fatal(err)
			}
		},
	})
}
