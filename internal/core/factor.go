package core

import (
	"context"
	"math"
	"math/bits"
)

// This file implements the factorized exhaustive counter: the same exact
// per-outcome tallies as CountExhaustive's N^TL odometer, computed in
// near-linear work by exploiting the product structure of perpetual
// outcomes.
//
// A converted outcome is a conjunction of constraints, each coupling at
// most two frame variables: a clause either mentions a single load
// thread (an EQZero check, a self-referential rf/fr bound, or an
// existential store-only thread observed from one load thread only), or
// it relates exactly two load threads (a cross rf/fr bound, or an
// existential thread observed from two load threads, whose interval
// intersection couples them). The satisfying frame set is therefore a
// "product-form" set: per-thread index bitsets joined by per-pair 0/1
// matrices. Counting such a set needs no frame walk:
//
//   - no pair matrices: the set is a rectangle; the count is the product
//     of per-thread popcounts;
//   - TL ≤ 3 with pair matrices: one pass over the first thread's
//     indices, intersecting matrix rows word-wise and popcounting —
//     O(N²/64) per outer index at worst, against the odometer's N^TL
//     frame evaluations.
//
// Building a pair matrix never visits its N² cells one at a time. Every
// binary clause reduces to threshold atoms rowKey(i) ≤ colKey(j) (see
// fillPairMatrix); each atom sorts both key arrays and sweeps once,
// ANDing a running column bitset into every row, so the build costs
// O(atoms·(N log N + N²/64)) — and the log factor drops, since keys
// are small integers and a counting sort suffices. With the build
// word-parallel, the TL=3 counting pass's per-(i0, i1) row intersection
// against m12 is the next cost: O(N³/64) when all three pairs are
// constrained.
//
// First-match-wins multi-outcome semantics are recovered by
// inclusion–exclusion over the earlier outcomes' product-form sets:
// counts[i] = Σ_{S ⊆ {0..i-1}} (−1)^|S| · |A_i ∩ ∩_{j∈S} A_j|, where
// every intersection is again product-form (bitsets AND per thread,
// matrices AND per pair) and subtrees whose running intersection is
// empty are pruned — disjoint outcomes, the common case, cost one term.
//
// Shapes outside the product form fall back to the odometer: an
// existential thread observed from three or more load threads (a
// genuinely ternary clause), cross constraints with TL ≥ 4 (the counting
// pass is specialized to TL ≤ 3), outcome sets too large for
// inclusion–exclusion, and pair-matrix footprints — per-outcome
// matrices plus the inclusion–exclusion stack's — past the memory
// guard. CountExhaustive remains the reference implementation; the
// differential tests in factor_test.go hold the two bit-for-bit equal.

// maxFactorOutcomes caps the outcome-set size the planner accepts, and
// maxFactorIETerms bounds the inclusion–exclusion work per outcome at
// run time: disjoint outcome chains (every full ConvertAllOutcomes set —
// distinct concrete register assignments) prune to O(k) live terms, but
// adversarially overlapping sets degrade toward 2^(k-1) terms, so the
// count aborts to the odometer once the term budget is spent.
const (
	maxFactorOutcomes = 256
	maxFactorIETerms  = 1 << 14
)

// maxFactorMatrixBytes bounds the total pair-matrix footprint: the
// per-outcome matrices plus the inclusion–exclusion stack's
// intersections. Counts past it fall back to the odometer rather than
// allocating gigabytes. A variable only so tests can exercise the guard
// at small N.
var maxFactorMatrixBytes int64 = 64 << 20

// ----- bitsets and bit matrices -----

type bitset []uint64

func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) popcount() int64 {
	var c int64
	for _, w := range b {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

func popcountAnd(a, b bitset) int64 {
	var c int64
	for i, w := range a {
		c += int64(bits.OnesCount64(w & b[i]))
	}
	return c
}

func andInto(dst, a, b bitset) {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// bitMatrix is an n×n 0/1 matrix over frame-index pairs, row-major with
// word-aligned rows.
type bitMatrix struct {
	n     int
	words int
	rows  []uint64
}

func (m *bitMatrix) row(i int) bitset { return m.rows[i*m.words : (i+1)*m.words] }

// ----- per-outcome factorization plan (independent of N) -----

// pairSlot maps an ordered load-thread position pair to its matrix slot:
// (0,1)→0, (0,2)→1, (1,2)→2. Valid for TL ≤ 3.
func pairSlot(p, q int) int {
	if p == 0 {
		return q - 1 // (0,1)→0, (0,2)→1
	}
	return 2 // (1,2)
}

// outcomePlan classifies one outcome's constraints by the frame
// variables they couple. A nil plan means the outcome is not
// factorizable and the whole counter falls back to the odometer.
//
// Every index list is resolved here, once per outcome, so the per-run
// build never consults a map. Pair slots are keyed by their position
// pair (p, q) with p < q (see pairSlot).
type outcomePlan struct {
	empty bool // Unsatisfiable: the empty set

	// Constraint indices local to one position (EQZero and self bounds).
	unaryEQ   [][]int
	unarySelf [][]int
	// unaryExist[p] holds, per existential var observed from position p
	// only, the indices of that var's constraints.
	unaryExist [][][]int
	// Cross rf/fr constraints per pair slot, split by the position whose
	// load they read: rowCross read p (a row-constant bound on q's index),
	// colCross read q (a per-column bound on p's index).
	rowCross, colCross [3][]int
	// Existential vars observed from both positions of a pair slot.
	pairExist [3][]existPair
}

// existPair is an existential var shared by a pair slot's two
// positions, its constraint indices split by the position they read.
type existPair struct{ p, q []int }

// planOutcome builds the factorization plan, or nil when the outcome's
// clause shape is not thread-separable into unary and pairwise parts.
func planOutcome(pt *PerpetualTest, po *PerpetualOutcome) *outcomePlan {
	tl := pt.TL()
	plan := &outcomePlan{
		unaryEQ:    make([][]int, tl),
		unarySelf:  make([][]int, tl),
		unaryExist: make([][][]int, tl),
	}
	if po.Unsatisfiable {
		plan.empty = true
		return plan
	}
	pos := make(map[int]int, tl)
	for p, t := range pt.LoadThreads {
		pos[t] = p
	}
	isExist := map[int]bool{}
	for _, v := range po.ExistVars {
		isExist[v] = true
	}
	refPos := make([]int, len(po.Constraints))
	// existCons[v] lists the constraints targeting exist var v, and
	// existFrom[v] the distinct positions observing it.
	existCons := map[int][]int{}
	existFrom := map[int][]int{}

	for ci := range po.Constraints {
		con := &po.Constraints[ci]
		rp, ok := pos[con.Ref.Thread]
		if !ok {
			return nil // load from a non-frame thread: cannot happen, bail safely
		}
		refPos[ci] = rp
		switch {
		case con.Rel == EQZero:
			plan.unaryEQ[rp] = append(plan.unaryEQ[rp], ci)
		case isExist[con.Var]:
			existCons[con.Var] = append(existCons[con.Var], ci)
			seen := false
			for _, p := range existFrom[con.Var] {
				if p == rp {
					seen = true
					break
				}
			}
			if !seen {
				existFrom[con.Var] = append(existFrom[con.Var], rp)
			}
		case con.Var == con.Ref.Thread:
			plan.unarySelf[rp] = append(plan.unarySelf[rp], ci)
		default:
			// Cross bound between two load threads.
			vp, ok := pos[con.Var]
			if !ok || tl > 3 {
				return nil
			}
			if rp < vp {
				s := pairSlot(rp, vp)
				plan.rowCross[s] = append(plan.rowCross[s], ci)
			} else {
				s := pairSlot(vp, rp)
				plan.colCross[s] = append(plan.colCross[s], ci)
			}
		}
	}

	for _, v := range po.ExistVars {
		from := existFrom[v]
		switch len(from) {
		case 0:
			// Exist vars always carry at least one constraint; defensive.
			return nil
		case 1:
			plan.unaryExist[from[0]] = append(plan.unaryExist[from[0]], existCons[v])
		case 2:
			if tl > 3 {
				return nil
			}
			p, q := min(from[0], from[1]), max(from[0], from[1])
			var e existPair
			for _, ci := range existCons[v] {
				if refPos[ci] == p {
					e.p = append(e.p, ci)
				} else {
					e.q = append(e.q, ci)
				}
			}
			s := pairSlot(p, q)
			plan.pairExist[s] = append(plan.pairExist[s], e)
		default:
			// A genuinely ternary clause: not pairwise-decomposable.
			return nil
		}
	}
	return plan
}

// hasPair reports whether pair slot s carries any binary clause.
func (plan *outcomePlan) hasPair(s int) bool {
	return len(plan.rowCross[s]) > 0 || len(plan.colCross[s]) > 0 || len(plan.pairExist[s]) > 0
}

// factorPlans builds (and caches) the per-outcome plans. ok is false
// when any outcome is outside the product form or the outcome set
// exceeds the inclusion–exclusion caps.
func (c *Counter) factorPlans() ([]*outcomePlan, bool) {
	if c.fplansBuilt {
		return c.fplans, c.fplansOK
	}
	c.fplansBuilt = true
	if len(c.outcomes) > maxFactorOutcomes {
		c.fplansOK = false
		return nil, false
	}
	plans := make([]*outcomePlan, len(c.outcomes))
	for i, po := range c.outcomes {
		p := planOutcome(c.pt, po)
		if p == nil {
			c.fplansOK = false
			return nil, false
		}
		plans[i] = p
	}
	c.fplans, c.fplansOK = plans, true
	return plans, true
}

// ----- per-run structures -----

// prodSet is a product-form frame set: per-position bitsets joined by
// per-pair bit matrices (nil = unconstrained pair).
type prodSet struct {
	empty bool
	unary []bitset
	pair  [3]*bitMatrix
}

// factorScratch holds every reusable buffer of the factorized pass; it
// lives on the Counter so steady-state counting does not allocate.
type factorScratch struct {
	n     int
	words int

	sets []prodSet // per outcome

	// Interval scratch, reused per outcome: ivLo/ivHi[k][i] is the
	// allowed target interval the k-th constraint of the current outcome
	// derives from its ref thread's iteration i.
	ivLo, ivHi [][]int64

	// Pair-matrix sweep scratch (see fillPairMatrix and sweep): one
	// shared existential's per-side intervals, the threshold keys of the
	// atom being applied, their sort orders and counting-sort buckets,
	// and the running column set.
	lp, hp, lq, hq     []int64
	rowKey, colKey     []int
	rowOrder, colOrder []int
	buckets            []int
	live               bitset
	ivSlab             []int64 // backs lp, hp, lq, hq
	keySlab            []int   // backs the keys, orders and buckets

	// DFS intersection stack for inclusion–exclusion, one prodSet per
	// depth, plus the row scratch of the counting loops.
	stack  []prodSet
	c1, c2 bitset

	// Matrix-memory guard: budget is what maxFactorMatrixBytes leaves
	// after the per-outcome matrices, and charged[d] marks the pair
	// slots whose stack matrix at depth d this count already paid for.
	budget  int64
	charged []uint8

	// Inclusion–exclusion accumulators of the current firstMatchCount.
	ieTotal int64
	ieTerms int
}

func resizeBitset(b bitset, words int) bitset {
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

func resizeInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// resizeMatrix returns an n×n matrix reusing m's rows when they fit.
// The contents are unspecified; every caller overwrites each row.
func resizeMatrix(m *bitMatrix, n, words int) *bitMatrix {
	if m == nil || cap(m.rows) < n*words {
		m = &bitMatrix{rows: make([]uint64, n*words)}
	}
	m.n, m.words = n, words
	m.rows = m.rows[:n*words]
	return m
}

// reset sizes every buffer the build writes for a run of n iterations
// over the given outcomes, growing (never shrinking) the reusable
// arrays, so the build itself only fills.
func (sc *factorScratch) reset(n, tl int, plans []*outcomePlan, outcomes []*PerpetualOutcome) {
	words := bitsetWords(n)
	sc.n, sc.words = n, words
	if cap(sc.sets) < len(plans) {
		sets := make([]prodSet, len(plans))
		copy(sets, sc.sets)
		sc.sets = sets
	}
	sc.sets = sc.sets[:len(plans)]
	maxCons := 0
	for oi, plan := range plans {
		set := &sc.sets[oi]
		if plan.empty {
			continue
		}
		maxCons = max(maxCons, len(outcomes[oi].Constraints))
		if cap(set.unary) < tl {
			set.unary = make([]bitset, tl)
		}
		set.unary = set.unary[:tl]
		for p := range set.unary {
			set.unary[p] = resizeBitset(set.unary[p], words)
		}
		for s := range set.pair {
			if plan.hasPair(s) {
				set.pair[s] = resizeMatrix(set.pair[s], n, words)
			} else {
				set.pair[s] = nil
			}
		}
	}
	if len(sc.ivLo) < maxCons {
		lo, hi := make([][]int64, maxCons), make([][]int64, maxCons)
		copy(lo, sc.ivLo)
		copy(hi, sc.ivHi)
		sc.ivLo, sc.ivHi = lo, hi
	}
	for ci := 0; ci < maxCons; ci++ {
		sc.ivLo[ci], sc.ivHi[ci] = resizeInt64(sc.ivLo[ci], n), resizeInt64(sc.ivHi[ci], n)
	}
	// The sweep arrays share two slabs: one allocation each when cold.
	sc.ivSlab = resizeInt64(sc.ivSlab, 4*n)
	sc.lp, sc.hp, sc.lq, sc.hq = sc.ivSlab[:n], sc.ivSlab[n:2*n], sc.ivSlab[2*n:3*n], sc.ivSlab[3*n:]
	if cap(sc.keySlab) < 6*n+4 {
		sc.keySlab = make([]int, 6*n+4)
	}
	keys := sc.keySlab[:6*n+4]
	sc.rowKey, sc.colKey, sc.rowOrder, sc.colOrder = keys[:n], keys[n:2*n], keys[2*n:3*n], keys[3*n:4*n]
	sc.buckets = keys[4*n:]
	sc.live = resizeBitset(sc.live, words)
	if cap(sc.charged) < len(plans) {
		sc.charged = make([]uint8, len(plans))
	}
	sc.charged = sc.charged[:len(plans)]
	clear(sc.charged)
}

// buildStructures fills the per-outcome prodSets for this run's buffers.
// ok=false means the pair-matrix footprint tripped the memory guard.
//
//perple:hotpath cover=core-factor-build
func (c *Counter) buildStructures(sc *factorScratch, bs *BufSet, plans []*outcomePlan) bool {
	n := bs.N
	tl := c.pt.TL()
	words := bitsetWords(n)

	// Memory guard on the total matrix footprint; what remains is the
	// budget for inclusion–exclusion's stack matrices.
	matBytes := int64(n) * int64(words) * 8
	sc.budget = maxFactorMatrixBytes
	for _, plan := range plans {
		for s := 0; s < 3 && !plan.empty; s++ {
			if plan.hasPair(s) {
				sc.budget -= matBytes
			}
		}
	}
	if sc.budget < 0 {
		return false
	}
	sc.reset(n, tl, plans, c.outcomes)

	for oi, plan := range plans {
		set := &sc.sets[oi]
		set.empty = plan.empty
		if plan.empty {
			continue
		}
		po := c.outcomes[oi]

		// Interval arrays for every rf/fr constraint of this outcome:
		// the allowed target-iteration interval per ref-thread index.
		for ci := range po.Constraints {
			con := &po.Constraints[ci]
			if con.Rel == EQZero {
				continue
			}
			lo, hi := sc.ivLo[ci], sc.ivHi[ci]
			rt := con.Ref.Thread
			stride := c.pt.Reads[rt]
			buf := bs.Bufs[rt]
			for i := 0; i < n; i++ {
				x := buf[stride*i+con.Ref.Slot]
				switch con.Rel {
				case RF:
					if ub, ok := con.rfBound(x); ok {
						lo[i], hi[i] = 0, ub
					} else {
						lo[i], hi[i] = 1, 0 // empty
					}
				case FR:
					if lb, ok := con.frBound(x); ok {
						lo[i], hi[i] = lb, math.MaxInt64
					} else {
						lo[i], hi[i] = 1, 0
					}
				}
			}
		}

		// Unary bitsets (zeroed by reset).
		for p := 0; p < tl; p++ {
			ub := set.unary[p]
			t := c.pt.LoadThreads[p]
			stride := c.pt.Reads[t]
			buf := bs.Bufs[t]
		unaryLoop:
			for i := 0; i < n; i++ {
				for _, ci := range plan.unaryEQ[p] {
					con := &po.Constraints[ci]
					if buf[stride*i+con.Ref.Slot] != 0 {
						continue unaryLoop
					}
				}
				for _, ci := range plan.unarySelf[p] {
					if int64(i) < sc.ivLo[ci][i] || int64(i) > sc.ivHi[ci][i] {
						continue unaryLoop
					}
				}
				for _, cons := range plan.unaryExist[p] {
					lo, hi := int64(0), int64(n-1)
					for _, ci := range cons {
						lo = max(lo, sc.ivLo[ci][i])
						hi = min(hi, sc.ivHi[ci][i])
					}
					if lo > hi {
						continue unaryLoop
					}
				}
				ub.set(i)
			}
		}

		// Pair matrices (nil where the slot is unconstrained).
		for s, m := range set.pair {
			if m != nil {
				sc.fillPairMatrix(m, plan, s)
			}
		}
	}
	return true
}

// fillPairMatrix builds the pairwise clause of one outcome's pair slot
// s as an n×n matrix over (i, j), i indexing position p and j position
// q, without evaluating cells one at a time.
//
// Row-constant bounds (rowCross: a load of p bounding q's index) give
// each row a [jlo, jhi] range, filled a word at a time. Every other
// binary clause reduces to threshold atoms rowKey(i) ≤ colKey(j), which
// sweep ANDs into all rows in O(N + N²/64):
//
//   - a colCross bound lo(j) ≤ i ≤ hi(j) is the atoms i ≤ hi(j) and
//     −i ≤ −lo(j);
//   - a shared existential whose per-side intervals are [Lp(i), Hp(i)]
//     and [Lq(j), Hq(j)] is nonempty iff both sides are and Lp(i) ≤
//     Hq(j) and −Hp(i) ≤ −Lq(j). An empty side is folded into the first
//     atom by keying its row above, or its column below, every live key.
//
// Keys clamp into [−(n+1), n+1]: one side of every atom already lies in
// [−(n−1), n−1], so clamping the other never changes a comparison.
//
//perple:hotpath cover=core-factor-build
func (sc *factorScratch) fillPairMatrix(m *bitMatrix, plan *outcomePlan, s int) {
	n := m.n
	for i := 0; i < n; i++ {
		jlo, jhi := int64(0), int64(n-1)
		for _, ci := range plan.rowCross[s] {
			jlo = max(jlo, sc.ivLo[ci][i])
			jhi = min(jhi, sc.ivHi[ci][i])
		}
		fillRange(m.row(i), jlo, jhi)
	}
	for _, ci := range plan.colCross[s] {
		lo, hi := sc.ivLo[ci], sc.ivHi[ci]
		for k := 0; k < n; k++ {
			sc.rowKey[k], sc.colKey[k] = k, clampKey(hi[k], n)
		}
		sc.sweep(m)
		for k := 0; k < n; k++ {
			sc.rowKey[k], sc.colKey[k] = -k, -clampKey(lo[k], n)
		}
		sc.sweep(m)
	}
	for _, e := range plan.pairExist[s] {
		sc.existIntervals(sc.lp, sc.hp, e.p, n)
		sc.existIntervals(sc.lq, sc.hq, e.q, n)
		for k := 0; k < n; k++ {
			sc.rowKey[k], sc.colKey[k] = clampKey(sc.lp[k], n), clampKey(sc.hq[k], n)
			if sc.lp[k] > sc.hp[k] {
				sc.rowKey[k] = n + 1
			}
			if sc.lq[k] > sc.hq[k] {
				sc.colKey[k] = -(n + 1)
			}
		}
		sc.sweep(m)
		for k := 0; k < n; k++ {
			sc.rowKey[k], sc.colKey[k] = -clampKey(sc.hp[k], n), -clampKey(sc.lq[k], n)
		}
		sc.sweep(m)
	}
}

// existIntervals intersects, per index k of one position, the target
// intervals of an existential's constraints read from that position,
// starting from the whole run [0, n−1].
//
//perple:hotpath cover=core-factor-build
func (sc *factorScratch) existIntervals(lo, hi []int64, cons []int, n int) {
	for k := 0; k < n; k++ {
		l, h := int64(0), int64(n-1)
		for _, ci := range cons {
			l = max(l, sc.ivLo[ci][k])
			h = min(h, sc.ivHi[ci][k])
		}
		lo[k], hi[k] = l, h
	}
}

// sweep ANDs the threshold atom rowKey(i) ≤ colKey(j) into every row of
// m: rows are visited in ascending key order while a running column set
// drops each column whose key falls below the current row's.
//
//perple:hotpath cover=core-factor-build
func (sc *factorScratch) sweep(m *bitMatrix) {
	n := m.n
	countingSort(sc.rowOrder, sc.rowKey, sc.buckets, n+1)
	countingSort(sc.colOrder, sc.colKey, sc.buckets, n+1)
	live := sc.live
	fillRange(live, 0, int64(n-1))
	dropped := 0
	for _, i := range sc.rowOrder {
		for dropped < n && sc.colKey[sc.colOrder[dropped]] < sc.rowKey[i] {
			j := sc.colOrder[dropped]
			live[j>>6] &^= 1 << uint(j&63)
			dropped++
		}
		switch dropped {
		case 0:
			// Every column survives: the AND is a no-op.
		case n:
			clear(m.row(i))
		default:
			row := m.row(i)
			for w := range row {
				row[w] &= live[w]
			}
		}
	}
}

// countingSort writes 0..len(keys)−1 into order, stably sorted by key;
// every key lies in [−off, off] and buckets holds at least 2·off+2
// counters.
//
//perple:hotpath cover=core-factor-build
func countingSort(order, keys, buckets []int, off int) {
	buckets = buckets[:2*off+2]
	clear(buckets)
	for _, k := range keys {
		buckets[k+off+1]++
	}
	for b := 1; b < len(buckets); b++ {
		buckets[b] += buckets[b-1]
	}
	for i, k := range keys {
		order[buckets[k+off]] = i
		buckets[k+off]++
	}
}

// clampKey clamps an interval bound into the sweep's key range
// [−(n+1), n+1].
func clampKey(v int64, n int) int {
	return int(max(-int64(n+1), min(v, int64(n+1))))
}

// fillRange overwrites row with the bits lo..hi set (none when the
// range is empty); bits past hi, including any past the run's last
// index, are cleared.
func fillRange(row bitset, lo, hi int64) {
	clear(row)
	if lo > hi {
		return
	}
	lw, hw := int(lo>>6), int(hi>>6)
	first, last := ^uint64(0)<<uint(lo&63), ^uint64(0)>>uint(63-hi&63)
	if lw == hw {
		row[lw] = first & last
		return
	}
	row[lw] = first
	for w := lw + 1; w < hw; w++ {
		row[w] = ^uint64(0)
	}
	row[hw] = last
}

// ----- counting product-form sets -----

// countProdSet counts the frames in a product-form set exactly.
func (sc *factorScratch) countProdSet(s *prodSet) int64 {
	if s.empty {
		return 0
	}
	tl := len(s.unary)
	hasPair := s.pair[0] != nil || s.pair[1] != nil || s.pair[2] != nil
	if !hasPair {
		total := int64(1)
		for _, ub := range s.unary {
			total = mulSat(total, ub.popcount())
			if total == 0 {
				return 0
			}
		}
		return total
	}
	switch tl {
	case 2:
		m := s.pair[0]
		var total int64
		u0, u1 := s.unary[0], s.unary[1]
		for i := 0; i < sc.n; i++ {
			if !u0.has(i) {
				continue
			}
			total += popcountAnd(m.row(i), u1)
		}
		return total
	case 3:
		m01, m02, m12 := s.pair[0], s.pair[1], s.pair[2]
		u0, u1, u2 := s.unary[0], s.unary[1], s.unary[2]
		sc.c1 = resizeBitset(sc.c1, sc.words)
		sc.c2 = resizeBitset(sc.c2, sc.words)
		var total int64
		for i0 := 0; i0 < sc.n; i0++ {
			if !u0.has(i0) {
				continue
			}
			c1 := u1
			if m01 != nil {
				andInto(sc.c1, m01.row(i0), u1)
				c1 = sc.c1
			}
			c2 := u2
			if m02 != nil {
				andInto(sc.c2, m02.row(i0), u2)
				c2 = sc.c2
			}
			if m12 == nil {
				total += mulSat(c1.popcount(), c2.popcount())
				continue
			}
			for w, word := range c1 {
				for word != 0 {
					i1 := w<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					total += popcountAnd(m12.row(i1), c2)
				}
			}
		}
		return total
	default:
		// Unreachable: pairs imply TL ≤ 3 (enforced by planOutcome).
		return 0
	}
}

// intersectInto writes a ∩ b into dst, reusing dst's backing arrays.
func (sc *factorScratch) intersectInto(dst, a, b *prodSet) {
	dst.empty = a.empty || b.empty
	if dst.empty {
		return
	}
	tl := len(a.unary)
	if cap(dst.unary) < tl {
		dst.unary = make([]bitset, tl)
	}
	dst.unary = dst.unary[:tl]
	for p := 0; p < tl; p++ {
		dst.unary[p] = resizeBitset(dst.unary[p], sc.words)
		andInto(dst.unary[p], a.unary[p], b.unary[p])
	}
	for s := 0; s < 3; s++ {
		am, bm := a.pair[s], b.pair[s]
		if am == nil && bm == nil {
			dst.pair[s] = nil
			continue
		}
		m := resizeMatrix(dst.pair[s], sc.n, sc.words)
		dst.pair[s] = m
		switch {
		case am == nil:
			copy(m.rows, bm.rows)
		case bm == nil:
			copy(m.rows, am.rows)
		default:
			for w := range m.rows {
				m.rows[w] = am.rows[w] & bm.rows[w]
			}
		}
	}
}

// chargeStack pays, from the matrix budget, for the stack matrices an
// intersection of a and b materializes at the given depth. Each
// (depth, slot) matrix is paid once per count, since the DFS reuses it.
// false means the budget is spent and the count must fall back.
func (sc *factorScratch) chargeStack(depth int, a, b *prodSet) bool {
	if a.empty || b.empty {
		return true
	}
	matBytes := int64(sc.n) * int64(sc.words) * 8
	for s := 0; s < 3; s++ {
		bit := uint8(1) << uint(s)
		if (a.pair[s] == nil && b.pair[s] == nil) || sc.charged[depth]&bit != 0 {
			continue
		}
		if sc.budget < matBytes {
			return false
		}
		sc.budget -= matBytes
		sc.charged[depth] |= bit
	}
	return true
}

// firstMatchCount computes the number of frames whose FIRST matching
// outcome is oi, by inclusion–exclusion over the earlier outcomes'
// sets. Zero-count subtrees are pruned (valid: intersections only
// shrink), so disjoint outcome chains cost O(oi) terms. ok=false means
// the overlap structure blew the term budget or the matrix budget, and
// the caller must fall back to the odometer.
func (sc *factorScratch) firstMatchCount(oi int) (int64, bool) {
	if len(sc.stack) < oi+1 {
		st := make([]prodSet, oi+1)
		copy(st, sc.stack)
		sc.stack = st
	}
	sc.ieTotal, sc.ieTerms = 0, 0
	if !sc.ieTerm(oi, 0, 0, &sc.sets[oi], 1) {
		return 0, false
	}
	return sc.ieTotal, true
}

// ieTerm adds cur's signed count to the running total and recurses into
// its intersections with the earlier outcomes nextJ..oi−1.
func (sc *factorScratch) ieTerm(oi, depth, nextJ int, cur *prodSet, sign int64) bool {
	sc.ieTerms++
	if sc.ieTerms > maxFactorIETerms {
		return false
	}
	cnt := sc.countProdSet(cur)
	if cnt == 0 {
		return true
	}
	sc.ieTotal += sign * cnt
	for j := nextJ; j < oi; j++ {
		child := &sc.stack[depth]
		if !sc.chargeStack(depth, cur, &sc.sets[j]) {
			return false
		}
		sc.intersectInto(child, cur, &sc.sets[j])
		if !sc.ieTerm(oi, depth+1, j+1, child, -sign) {
			return false
		}
	}
	return true
}

// mulSat multiplies non-negative counts, saturating at MaxInt64 (only
// reachable in regimes the odometer could never walk).
func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// powSat computes n^tl with saturation, the logical frame count.
func powSat(n int64, tl int) int64 {
	total := int64(1)
	for i := 0; i < tl; i++ {
		total = mulSat(total, n)
	}
	return total
}

// ----- entry points -----

// CountFactorized computes exactly CountExhaustive's result via the
// factorized pass. ok=false reports a clause shape, outcome-set size or
// matrix footprint outside the factorizable fragment — the caller must
// fall back to the odometer. Frames reports the logical N^TL frame
// count the odometer would have walked.
func (c *Counter) CountFactorized(bs *BufSet) (res *CountResult, ok bool, err error) {
	if err := bs.Validate(c.pt); err != nil {
		return nil, false, err
	}
	plans, ok := c.factorPlans()
	if !ok {
		return nil, false, nil
	}
	res = &CountResult{Counts: make([]int64, len(c.outcomes))}
	n := bs.N
	tl := c.pt.TL()
	if n == 0 || tl == 0 {
		return res, true, nil
	}
	if c.fscratch == nil {
		c.fscratch = &factorScratch{}
	}
	sc := c.fscratch
	if !c.buildStructures(sc, bs, plans) {
		return nil, false, nil
	}
	for oi := range c.outcomes {
		cnt, ok := sc.firstMatchCount(oi)
		if !ok {
			return nil, false, nil
		}
		res.Counts[oi] = cnt
	}
	res.Frames = powSat(int64(n), tl)
	return res, true, nil
}

// CountExhaustiveAuto selects the fastest exact exhaustive counter: the
// factorized pass when the outcome set is product-form, otherwise the
// parallel odometer fan-out. The tallies are identical either way (the
// differential tests prove it); only the work to produce them differs.
func (c *Counter) CountExhaustiveAuto(ctx context.Context, bs *BufSet, workers int) (*CountResult, error) {
	if res, ok, err := c.CountFactorized(bs); err != nil {
		return nil, err
	} else if ok {
		return res, nil
	}
	return c.CountExhaustiveParallel(ctx, bs, workers)
}
