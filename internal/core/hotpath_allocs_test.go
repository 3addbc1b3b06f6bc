package core

import (
	"math/rand"
	"testing"

	"perple/internal/analysis/hotpath"
)

// TestHotpathAllocs verifies this package's //perple:hotpath
// annotations: the frame-evaluation kernel (eval, evalConstraints,
// evalPinned, bufVal) shared by the exhaustive and heuristic counters
// must be allocation-free — it runs N^TL (or N) times per count. The
// exerciser drives the kernel directly over a small frame space rather
// than through CountExhaustive, which allocates its fresh CountResult
// per call by design. Likewise the factorized counter's structure build
// (interval arrays, unary bitsets, swept pair matrices) is exercised by
// rebuilding on warmed counters — TL 2 and 3, cross bounds and shared
// existentials — at a size spanning several words.
func TestHotpathAllocs(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 8
	bs := lockstepBufs(pt, n)
	anchor := pt.LoadThreads[0]

	rng := rand.New(rand.NewSource(5))
	var rebuilds []func()
	for _, name := range []string{"sb", "podwr001", "wrc"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		fc := NewCounter(pt, pos)
		fbs := randomBufs(rng, pt, 130)
		if _, ok, err := fc.CountFactorized(fbs); err != nil || !ok {
			t.Fatalf("%s: warm-up count ok=%v err=%v", name, ok, err)
		}
		plans, _ := fc.factorPlans()
		rebuilds = append(rebuilds, func() {
			if !fc.buildStructures(fc.fscratch, fbs, plans) {
				t.Fatal("rebuild tripped the matrix guard")
			}
		})
	}

	hotpath.Verify(t, ".", map[string]func(){
		"core-factor-build": func() {
			for _, rebuild := range rebuilds {
				rebuild()
			}
		},
		"core-count-eval": func() {
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					c.vals[pt.LoadThreads[0]] = i
					c.vals[pt.LoadThreads[1]] = j
					for _, po := range pos {
						c.eval(po, bs, n)
					}
				}
				c.vals[anchor] = i
				for _, po := range pos {
					c.evalPinned(po, bs, n, i)
				}
			}
		},
	})
}
