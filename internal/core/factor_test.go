package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"perple/internal/litmus"
)

// requireSameCounts holds a factorized result to the odometer's,
// bit-for-bit: every per-outcome tally and the logical frame count.
func requireSameCounts(t *testing.T, name string, fac, odo *CountResult) {
	t.Helper()
	if fac.Frames != odo.Frames {
		t.Fatalf("%s: factorized frames = %d, odometer = %d", name, fac.Frames, odo.Frames)
	}
	if len(fac.Counts) != len(odo.Counts) {
		t.Fatalf("%s: count lengths differ: %d vs %d", name, len(fac.Counts), len(odo.Counts))
	}
	for i := range fac.Counts {
		if fac.Counts[i] != odo.Counts[i] {
			t.Fatalf("%s: outcome %d: factorized = %d, odometer = %d (all: fac=%v odo=%v)",
				name, i, fac.Counts[i], odo.Counts[i], fac.Counts, odo.Counts)
		}
	}
}

// TestFactorizedCoversSuite asserts the factorized path actually engages
// (no silent odometer fallback) for every convertible suite test with
// its full outcome set — the speedup claim is void if the planner bails.
func TestFactorizedCoversSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		bs := NewBufSet(pt, 4)
		if _, ok, err := c.CountFactorized(bs); err != nil {
			t.Fatalf("%s: %v", e.Test.Name, err)
		} else if !ok {
			t.Errorf("%s: full outcome set fell back to the odometer", e.Test.Name)
		}
	}
}

// TestFactorizedMatchesOdometerSuite is the headline differential: for
// every convertible suite test (TL spans 1..3: mp, sb/iriw, podwr001)
// and its full first-match outcome chain, the factorized counter must
// reproduce the odometer's tallies exactly over random buffers.
func TestFactorizedMatchesOdometerSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		for round := 0; round < rounds; round++ {
			n := 1 + rng.Intn(14)
			bs := randomBufs(rng, pt, n)
			odo, err := c.CountExhaustive(bs)
			if err != nil {
				t.Fatal(err)
			}
			fac, ok, err := c.CountFactorized(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: unexpected fallback", e.Test.Name)
			}
			requireSameCounts(t, e.Test.Name, fac, odo)
		}
	}
}

// TestFactorizedMatchesOdometerLockstep pins the differential to the
// analytically known lockstep sb partition (diagonal + two triangles).
func TestFactorizedMatchesOdometerLockstep(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 20
	bs := lockstepBufs(pt, n)
	fac, ok, err := c.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("factorized: ok=%v err=%v", ok, err)
	}
	want := []int64{n, n * (n - 1) / 2, n * (n - 1) / 2, 0}
	for i, w := range want {
		if fac.Counts[i] != w {
			t.Errorf("outcome %d count = %d, want %d", i, fac.Counts[i], w)
		}
	}
	if fac.Frames != n*n {
		t.Errorf("frames = %d, want %d", fac.Frames, n*n)
	}
}

// wordBoundarySizes straddle the 64-bit words of the bitsets and
// matrices, where a word-parallel builder's masks and tails can break.
var wordBoundarySizes = []int{1, 63, 64, 65, 127, 129, 200}

// TestFactorizedFuzzOutcomeSets is the satellite fuzz: random outcome
// subsets of size 1–4 — with replacement, so duplicated outcomes force
// fully overlapping sets through the inclusion–exclusion chain (a
// duplicate's first-match count must be exactly 0) — over random
// BufSets and varying N, for tests spanning TL ∈ {1, 2, 3}. Random N
// stays within one word; the word-boundary sizes follow the random
// rounds (TL=3 stops at 65 to keep the N³ odometer affordable).
func TestFactorizedFuzzOutcomeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for _, name := range []string{"mp", "sb", "amd3", "iriw", "podwr001"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for _, n := range wordBoundarySizes {
			if pt.TL() < 3 || n <= 65 {
				sizes = append(sizes, n)
			}
		}
		for round := 0; round < rounds+len(sizes); round++ {
			k := 1 + rng.Intn(4)
			sel := make([]*PerpetualOutcome, k)
			for i := range sel {
				sel[i] = pos[rng.Intn(len(pos))]
			}
			c := NewCounter(pt, sel)
			n := 1 + rng.Intn(12)
			if round >= rounds {
				n = sizes[round-rounds]
			}
			bs := randomBufs(rng, pt, n)
			odo, err := c.CountExhaustive(bs)
			if err != nil {
				t.Fatal(err)
			}
			fac, ok, err := c.CountFactorized(bs)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s round %d: unexpected fallback", name, round)
			}
			requireSameCounts(t, name, fac, odo)
			for i := range sel {
				for j := 0; j < i; j++ {
					if sel[j] == sel[i] && fac.Counts[i] != 0 {
						t.Fatalf("%s: duplicated outcome %d counted %d frames, want 0",
							name, i, fac.Counts[i])
					}
				}
			}
		}
	}
}

// TestFactorizedEmptyAndZero covers the degenerate shapes the odometer
// special-cases: N=0 and an unsatisfiable outcome in the chain.
func TestFactorizedEmptyAndZero(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	fac, ok, err := c.CountFactorized(NewBufSet(pt, 0))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if fac.Frames != 0 || fac.Total() != 0 {
		t.Errorf("N=0 produced frames=%d total=%d", fac.Frames, fac.Total())
	}

	unsat := &PerpetualOutcome{Unsatisfiable: true}
	cu := NewCounter(pt, []*PerpetualOutcome{unsat, pos[0]})
	rng := rand.New(rand.NewSource(3))
	bs := randomBufs(rng, pt, 9)
	odo, err := cu.CountExhaustive(bs)
	if err != nil {
		t.Fatal(err)
	}
	fac2, ok, err := cu.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	requireSameCounts(t, "sb+unsat", fac2, odo)
	if fac2.Counts[0] != 0 {
		t.Errorf("unsatisfiable outcome counted %d frames", fac2.Counts[0])
	}
}

// TestFactorizedFallbackCaps covers both fallback guards: an outcome
// set past the planner cap declines up front, and an adversarially
// overlapping chain (the same nonempty outcome duplicated 20 times, so
// no inclusion–exclusion subtree ever prunes) trips the term budget at
// run time. CountExhaustiveAuto must return odometer-identical tallies
// through either fallback.
func TestFactorizedFallbackCaps(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}

	huge := make([]*PerpetualOutcome, maxFactorOutcomes+1)
	for i := range huge {
		huge[i] = pos[i%len(pos)]
	}
	if _, ok, err := NewCounter(pt, huge).CountFactorized(NewBufSet(pt, 4)); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatalf("%d outcomes accepted past planner cap %d", len(huge), maxFactorOutcomes)
	}

	const n = 20
	dup := make([]*PerpetualOutcome, n)
	for i := range dup {
		dup[i] = pos[0] // target holds on the lockstep diagonal: nonempty
	}
	c := NewCounter(pt, dup)
	bs := lockstepBufs(pt, n)
	if _, ok, err := c.CountFactorized(bs); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("fully overlapping outcome chain did not trip the term budget")
	}
	auto, err := c.CountExhaustiveAuto(context.Background(), bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	odo, err := c.CountExhaustive(bs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCounts(t, "sb-dup", auto, odo)
}

// TestCountExhaustiveAutoMatches: the auto selector must be
// tally-identical to the odometer whichever path it takes.
func TestCountExhaustiveAutoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, name := range []string{"sb", "mp", "iriw", "podwr001"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		bs := randomBufs(rng, pt, 10)
		auto, err := c.CountExhaustiveAuto(context.Background(), bs, 3)
		if err != nil {
			t.Fatal(err)
		}
		odo, err := c.CountExhaustive(bs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCounts(t, name, auto, odo)
	}
}

// TestFactorizedCloneSharesPlans: Clones reuse the immutable plans but
// never the mutable scratch, so cloned counters stay independent.
func TestFactorizedCloneSharesPlans(t *testing.T) {
	pt := mustConvert(t, "podwr001")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	rng := rand.New(rand.NewSource(2))
	bs := randomBufs(rng, pt, 6)
	if _, ok, err := c.CountFactorized(bs); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	cl := c.Clone()
	if cl.fscratch != nil {
		t.Fatal("clone shares factor scratch with parent")
	}
	if !cl.fplansBuilt || len(cl.fplans) != len(c.fplans) {
		t.Fatal("clone did not inherit factor plans")
	}
	odo, err := cl.CountExhaustive(bs)
	if err != nil {
		t.Fatal(err)
	}
	fac, ok, err := cl.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("clone: ok=%v err=%v", ok, err)
	}
	requireSameCounts(t, "podwr001-clone", fac, odo)
}

// refPairMatrix is the matrix-level reference for fillPairMatrix: it
// evaluates pair slot s's clause cell by cell — row-constant cross
// bounds, per-column cross bounds, and every shared existential's
// interval intersection — from the intervals the last build left in sc.
func refPairMatrix(sc *factorScratch, plan *outcomePlan, s, n int) *bitMatrix {
	words := bitsetWords(n)
	m := &bitMatrix{n: n, words: words, rows: make([]uint64, n*words)}
	for i := 0; i < n; i++ {
		row := m.row(i)
		jlo, jhi := int64(0), int64(n-1)
		for _, ci := range plan.rowCross[s] {
			jlo = max(jlo, sc.ivLo[ci][i])
			jhi = min(jhi, sc.ivHi[ci][i])
		}
		for j := jlo; j <= jhi; j++ {
			ok := true
			for _, ci := range plan.colCross[s] {
				if int64(i) < sc.ivLo[ci][j] || int64(i) > sc.ivHi[ci][j] {
					ok = false
				}
			}
			for _, e := range plan.pairExist[s] {
				lo, hi := int64(0), int64(n-1)
				for _, ci := range e.p {
					lo, hi = max(lo, sc.ivLo[ci][i]), min(hi, sc.ivHi[ci][i])
				}
				for _, ci := range e.q {
					lo, hi = max(lo, sc.ivLo[ci][j]), min(hi, sc.ivHi[ci][j])
				}
				if lo > hi {
					ok = false
				}
			}
			if ok {
				row.set(int(j))
			}
		}
	}
	return m
}

// TestPairMatricesMatchReference holds the swept pair matrices
// row-identical to the per-cell reference for every outcome of every
// convertible suite test with pair matrices, at word-boundary sizes and
// over buffers with off-sequence, negative, out-of-range and zero
// values. Each outcome is built on its own so the scratch intervals the
// reference reads are that outcome's.
func TestPairMatricesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rowAtoms, colAtoms, existAtoms int
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range append([]int{2, 5}, wordBoundarySizes...) {
			data := make([]byte, 512)
			rng.Read(data)
			bs := fuzzBufs(pt, n, data)
			for oi, po := range pos {
				c := NewCounter(pt, []*PerpetualOutcome{po})
				plans, ok := c.factorPlans()
				if !ok {
					continue
				}
				plan := plans[0]
				c.fscratch = &factorScratch{}
				if !c.buildStructures(c.fscratch, bs, plans) {
					t.Fatalf("%s n=%d: matrix guard tripped", e.Test.Name, n)
				}
				for s := 0; s < 3; s++ {
					if plan.empty || !plan.hasPair(s) {
						continue
					}
					rowAtoms += len(plan.rowCross[s])
					colAtoms += len(plan.colCross[s])
					existAtoms += len(plan.pairExist[s])
					got := c.fscratch.sets[0].pair[s]
					want := refPairMatrix(c.fscratch, plan, s, n)
					for i := 0; i < n; i++ {
						g, w := got.row(i), want.row(i)
						for k := range w {
							if g[k] != w[k] {
								t.Fatalf("%s n=%d outcome %d slot %d row %d word %d: swept %064b, reference %064b",
									e.Test.Name, n, oi, s, i, k, g[k], w[k])
							}
						}
					}
				}
			}
		}
	}
	if rowAtoms == 0 || colAtoms == 0 || existAtoms == 0 {
		t.Fatalf("suite left a clause kind unexercised: row cross %d, column cross %d, shared existential %d",
			rowAtoms, colAtoms, existAtoms)
	}
}

// TestFactorizedStackGuard: a fully overlapping chain (one nonempty
// outcome repeated) never prunes, so inclusion–exclusion materializes
// a stack matrix per depth. With the per-outcome matrices inside the
// budget but the stack past it, the count must fall back rather than
// grow — no matrix beyond the budget is ever allocated — and the auto
// counter must still match the odometer.
func TestFactorizedStackGuard(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 300, 8
	matBytes := int64(n * bitsetWords(n) * 8)
	defer func(old int64) { maxFactorMatrixBytes = old }(maxFactorMatrixBytes)
	maxFactorMatrixBytes = (k + 3) * matBytes

	dup := make([]*PerpetualOutcome, k)
	for i := range dup {
		dup[i] = pos[0] // target holds on the lockstep diagonal: nonempty
	}
	c := NewCounter(pt, dup)
	bs := lockstepBufs(pt, n)
	if _, ok, err := c.CountFactorized(bs); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("overlapping chain past the matrix budget did not fall back")
	}
	var held int64
	for _, sets := range [][]prodSet{c.fscratch.sets, c.fscratch.stack} {
		for _, set := range sets {
			for _, m := range set.pair {
				if m != nil {
					held += int64(cap(m.rows)) * 8
				}
			}
		}
	}
	if held > maxFactorMatrixBytes {
		t.Fatalf("matrices hold %d bytes, budget %d", held, maxFactorMatrixBytes)
	}

	auto, err := c.CountExhaustiveAuto(context.Background(), bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	odo, err := c.CountExhaustive(bs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCounts(t, "sb-dup-guard", auto, odo)

	// The same chain fits once the budget covers its stack.
	maxFactorMatrixBytes = 2 * k * matBytes
	fac, ok, err := c.CountFactorized(bs)
	if err != nil || !ok {
		t.Fatalf("chain within budget: ok=%v err=%v", ok, err)
	}
	requireSameCounts(t, "sb-dup-fits", fac, odo)
}

// fuzzBufs fills a BufSet from data, read cyclically as a selector and
// an operand byte per load slot. Selectors pick 0 (every fr bound's
// [0, MaxInt64] interval), on-sequence values — including iterations
// past n, whose bounds the sweep clamps — off-sequence values (one past
// a sequence value: another offset of a multi-store location, or no
// sequence at all), negatives, and values near MaxInt64.
func fuzzBufs(pt *PerpetualTest, n int, data []byte) *BufSet {
	bs := NewBufSet(pt, n)
	at := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[at%len(data)]
		at++
		return b
	}
	for _, t := range pt.LoadThreads {
		for i := 0; i < n; i++ {
			for s := 0; s < pt.Reads[t]; s++ {
				stores := storesTo(pt, pt.LoadLoc[t][s])
				sel, arg := next(), int64(next())
				var v int64
				switch sel % 8 {
				case 0:
				case 1, 2, 3, 4, 5:
					if len(stores) > 0 {
						v = stores[int(sel/8)%len(stores)].Value(arg % int64(n+2))
						if sel%8 == 5 {
							v++
						}
					}
				case 6:
					v = -arg - 1
				case 7:
					v = math.MaxInt64 - arg
				}
				bs.Bufs[t][pt.Reads[t]*i+s] = v
			}
		}
	}
	return bs
}

// FuzzCountFactorized holds the factorized counter to the odometer on
// fuzz-chosen inputs: data[0] picks a convertible suite test, data[1]
// the outcome-subset size (1–4, drawn with replacement by the next
// bytes), data[2] N (capped per TL so the N^TL odometer stays
// affordable), and the rest fills the buffers through fuzzBufs.
// Whenever the factorized pass accepts, its tallies must be
// bit-identical. The seed corpus covers every suite test at several
// sizes, so plain `go test` runs it.
func FuzzCountFactorized(f *testing.F) {
	type fuzzTest struct {
		pt  *PerpetualTest
		pos []*PerpetualOutcome
	}
	var tests []fuzzTest
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			continue
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			f.Fatal(err)
		}
		tests = append(tests, fuzzTest{pt, pos})
	}
	for ti := range tests {
		f.Add([]byte{byte(ti), 0, 65, 0, 1, 2, 3, 4, 5, 6, 7})
		f.Add([]byte{byte(ti), 3, 129, 1, 2, 3, 0, 9, 17, 6, 250, 7, 3, 5, 13, 0, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ft := tests[int(data[0])%len(tests)]
		k := 1 + int(data[1])%4
		if len(data) < 3+k {
			return
		}
		sel := make([]*PerpetualOutcome, k)
		for i := range sel {
			sel[i] = ft.pos[int(data[3+i])%len(ft.pos)]
		}
		maxN := 8
		switch ft.pt.TL() {
		case 1, 2:
			maxN = 200
		case 3:
			maxN = 24
		}
		n := int(data[2]) % (maxN + 1)
		bs := fuzzBufs(ft.pt, n, data[3+k:])
		c := NewCounter(ft.pt, sel)
		fac, ok, err := c.CountFactorized(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		odo, err := c.CountExhaustive(bs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameCounts(t, ft.pt.Orig.Name, fac, odo)
	})
}
