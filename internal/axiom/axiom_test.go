package axiom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// TestSuiteClassification is the headline acceptance property: for every
// test of the Table II suite, the static classification of the declared
// target matches the suite's allowed/forbidden label. The allowed group's
// targets are additionally SC-forbidden by construction (observing one
// demonstrates store buffering), so they must classify exactly TSOOnly.
func TestSuiteClassification(t *testing.T) {
	for _, e := range litmus.Suite() {
		rep, err := Analyze(e.Test)
		if err != nil {
			t.Fatalf("%s: %v", e.Test.Name, err)
		}
		want := Forbidden
		if e.Allowed {
			want = TSOOnly
		}
		if rep.Target.Class != want {
			t.Errorf("%s: target classified %v, want %v", e.Test.Name, rep.Target.Class, want)
		}
		if e.Allowed && rep.Target.Witness == nil {
			t.Errorf("%s: allowed target has no witness", e.Test.Name)
		}
		if !e.Allowed && rep.Target.Witness != nil {
			t.Errorf("%s: forbidden target has a witness:\n%s", e.Test.Name, rep.Target.Witness.Format())
		}
		if rep.Target.Unsatisfiable {
			t.Errorf("%s: suite target reported unsatisfiable", e.Test.Name)
		}
		if rep.Target.Vacuous {
			t.Errorf("%s: suite target reported vacuous", e.Test.Name)
		}
	}
}

// TestNonConvertibleAgainstMemmodel classifies the final-memory-target
// tests against the operational store-buffer machine rather than
// hand-written labels.
func TestNonConvertibleAgainstMemmodel(t *testing.T) {
	for _, tc := range litmus.NonConvertible() {
		rep, err := Analyze(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		wantTSO := memmodel.OperationalAllowed(tc, tc.Target, memmodel.TSO)
		wantSC := memmodel.OperationalAllowed(tc, tc.Target, memmodel.SC)
		var want Class
		switch {
		case wantSC:
			want = SCAllowed
		case wantTSO:
			want = TSOOnly
		default:
			want = Forbidden
		}
		if rep.Target.Class != want {
			t.Errorf("%s: target classified %v, want %v", tc.Name, rep.Target.Class, want)
		}
	}
}

// TestResultSetsMatchMemmodel cross-validates the memoized enumeration
// against the independent operational store-buffer machine over the
// suite and the non-convertible tests: identical TSO result sets and SC
// subsets in the Report, and identical States for every model.
func TestResultSetsMatchMemmodel(t *testing.T) {
	var tests []*litmus.Test
	for _, e := range litmus.Suite() {
		tests = append(tests, e.Test)
	}
	tests = append(tests, litmus.NonConvertible()...)
	for _, tc := range tests {
		checkResultSets(t, tc)
	}
}

// TestResultSetsMatchMemmodelRandom repeats the cross-validation over a
// fixed-seed generated corpus sized to fit the default cutoff.
func TestResultSetsMatchMemmodelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := litmus.GenConfig{
		MinThreads: 2,
		MaxThreads: 4,
		MaxInstrs:  2,
		Locs:       []litmus.Loc{"x", "y", "z"},
		FenceProb:  0.2,
	}
	for i := 0; i < 40; i++ {
		tc := litmus.Generate(rng, cfg, fmt.Sprintf("axrand%03d", i))
		checkResultSets(t, tc)
	}
	// And over diy cycle tests, which exercise every edge kind.
	cycles := [][]litmus.EdgeSpec{
		{litmus.PodWR, litmus.Fre, litmus.PodWR, litmus.Fre},
		{litmus.PodWW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.PodRW, litmus.Rfe, litmus.PodRW, litmus.Rfe},
		{litmus.Rfe, litmus.PodRW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.Rfe, litmus.PodRR, litmus.Fre, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.FencedWR, litmus.Fre, litmus.FencedWR, litmus.Fre},
		{litmus.Wse, litmus.PodWW, litmus.Wse, litmus.PodWW},
	}
	for i, edges := range cycles {
		tc, err := litmus.FromCycle(fmt.Sprintf("axcycle%02d", i), edges...)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		checkResultSets(t, tc)
	}
}

func checkResultSets(t *testing.T, tc *litmus.Test) {
	t.Helper()
	rep, err := Analyze(tc)
	var tle *TooLargeError
	if errors.As(err, &tle) {
		t.Fatalf("%s: unexpectedly over the cutoff: %v", tc.Name, err)
	}
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	gotTSO := stateKeys(tc, rep.Results, false)
	gotSC := stateKeys(tc, rep.Results, true)
	opTSO := memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, memmodel.TSO))
	opSC := memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, memmodel.SC))
	diffKeys(t, tc.Name, "Report TSO vs operational", gotTSO, opTSO)
	diffKeys(t, tc.Name, "Report SC vs operational", gotSC, opSC)
	for _, m := range memmodel.Models {
		states, err := States(tc, m, DefaultLimits())
		if err != nil {
			t.Fatalf("%s: States(%v): %v", tc.Name, m, err)
		}
		diffKeys(t, tc.Name, fmt.Sprintf("States(%v) vs operational", m),
			memmodelKeys(tc, states), memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, m)))
	}
}

func stateKeys(tc *litmus.Test, results []Result, scOnly bool) map[string]bool {
	out := map[string]bool{}
	for _, r := range results {
		if scOnly && !r.SC {
			continue
		}
		out[stateKey(tc, r.Regs, r.Mem)] = true
	}
	return out
}

func memmodelKeys(tc *litmus.Test, results []memmodel.State) map[string]bool {
	out := map[string]bool{}
	for _, r := range results {
		out[stateKey(tc, r.Regs, r.Mem)] = true
	}
	return out
}

func diffKeys(t *testing.T, name, what string, got, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !want[k] {
			t.Errorf("%s: %s: axiom allows state %q the oracle forbids", name, what, k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: %s: axiom misses state %q the oracle allows", name, what, k)
		}
	}
}

func TestClassifyOutcomeSpace(t *testing.T) {
	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 4 {
		t.Fatalf("sb outcome space has %d entries, want 4", len(rep.Outcomes))
	}
	// Exactly one TSOOnly outcome (0,0); the other three are SC-allowed.
	var tsoOnly, scAllowed int
	for _, oc := range rep.Outcomes {
		switch oc.Class {
		case TSOOnly:
			tsoOnly++
		case SCAllowed:
			scAllowed++
		case Forbidden:
			t.Errorf("sb outcome %v classified forbidden", oc.Outcome)
		}
	}
	if tsoOnly != 1 || scAllowed != 3 {
		t.Errorf("sb: got %d tso-only and %d sc-allowed outcomes, want 1 and 3", tsoOnly, scAllowed)
	}
}

func TestUnsatisfiableTarget(t *testing.T) {
	sb, _ := litmus.SuiteTest("sb")
	tc := sb.Clone()
	tc.Name = "sb-unsat"
	tc.Target = litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 7}}}
	rep, err := Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Target.Unsatisfiable {
		t.Error("target value outside the store-value domain not reported unsatisfiable")
	}
	if rep.Target.Class != Forbidden {
		t.Errorf("unsatisfiable target classified %v, want forbidden", rep.Target.Class)
	}
}

// TestUnloadedRegisterTarget: a register no load writes (Validate allows
// r0 unused when r1 is loaded) holds 0 in every execution, so a condition
// on it is satisfiable iff it asks for 0 — and the verdict must agree
// with the classification.
func TestUnloadedRegisterTarget(t *testing.T) {
	tc := &litmus.Test{
		Name: "unloaded-reg",
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1)}},
			{Instrs: []litmus.Instr{litmus.Load(1, "x")}},
		},
		Target: litmus.Outcome{Conds: []litmus.Cond{
			{Thread: 1, Reg: 0, Value: 0}, {Thread: 1, Reg: 1, Value: 1},
		}},
	}
	rep, err := Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Target.Unsatisfiable || rep.Target.Class != SCAllowed {
		t.Errorf("1:r0=0 /\\ 1:r1=1: unsatisfiable=%v class=%v, want reachable and sc-allowed",
			rep.Target.Unsatisfiable, rep.Target.Class)
	}
	tc.Target.Conds[0].Value = 1
	if rep, err = Analyze(tc); err != nil {
		t.Fatal(err)
	}
	if !rep.Target.Unsatisfiable || rep.Target.Class != Forbidden {
		t.Errorf("1:r0=1 /\\ 1:r1=1: unsatisfiable=%v class=%v, want unsatisfiable and forbidden",
			rep.Target.Unsatisfiable, rep.Target.Class)
	}
}

func TestVacuousTarget(t *testing.T) {
	tc := &litmus.Test{
		Name: "vacuous",
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "x")}},
		},
		Target: litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 1}}},
	}
	rep, err := Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	// A single-thread load after a same-location store must observe it
	// under any model with coherence: the target always holds.
	if !rep.Target.Vacuous {
		t.Error("always-true target not reported vacuous")
	}
	if rep.Target.Class != SCAllowed {
		t.Errorf("vacuous target classified %v, want sc-allowed", rep.Target.Class)
	}
}

func TestCutoffError(t *testing.T) {
	big := &litmus.Test{Name: "big"}
	for ti := 0; ti < 3; ti++ {
		var ins []litmus.Instr
		for i := 0; i < 3; i++ {
			ins = append(ins, litmus.Store(litmus.Loc(fmt.Sprintf("x%d", ti)), int64(3*ti+i+1)))
		}
		big.Threads = append(big.Threads, litmus.Thread{Instrs: ins})
	}
	big.Target = litmus.Outcome{Conds: []litmus.Cond{{Loc: "x0", Value: 1}}}
	_, err := Analyze(big) // 9 events > default 8
	var tle *TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("got %v, want *TooLargeError", err)
	}
	if tle.Events != 9 {
		t.Errorf("TooLargeError.Events = %d, want 9", tle.Events)
	}
	if !strings.Contains(err.Error(), "refusing") {
		t.Errorf("error %q does not state the refusal", err)
	}
	if _, err := States(big, memmodel.PSO, DefaultLimits()); !errors.As(err, &tle) {
		t.Errorf("States over the cutoff: got %v, want *TooLargeError", err)
	}
	// Raising the cutoff makes the same test analyzable.
	if _, err := AnalyzeWithLimits(big, Limits{MaxThreads: 4, MaxEvents: 9}); err != nil {
		t.Errorf("AnalyzeWithLimits over raised cutoff: %v", err)
	}
}

func TestWitnessFormat(t *testing.T) {
	sb, _ := litmus.SuiteTest("sb")
	rep, err := Analyze(sb)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Target.Witness
	if w == nil {
		t.Fatal("sb target has no witness")
	}
	if !sb.Target.HoldsFull(w.Regs, w.Mem) {
		t.Fatalf("witness final state does not satisfy the target:\n%s", w.Format())
	}
	out := w.Format()
	for _, want := range []string{"rf:", "co:", "final:", "reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness rendering missing %q:\n%s", want, out)
		}
	}
}

// TestDeterministic: two analyses of the same test produce identical
// reports, including result order and witnesses — required for stable CI
// output and reproducible lint reports.
func TestDeterministic(t *testing.T) {
	for _, e := range litmus.Suite()[:6] {
		a, err := Analyze(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Analyze(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := reportFingerprint(a), reportFingerprint(b); fa != fb {
			t.Errorf("%s: analysis not deterministic:\n%s\nvs\n%s", e.Test.Name, fa, fb)
		}
	}
}

// reportFingerprint renders everything observable about a report —
// result order, flags, witnesses, outcome classes, counters — without
// pointer identities.
func reportFingerprint(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec=%d consistent=%d\n", r.Executions, r.Consistent)
	for _, res := range r.Results {
		fmt.Fprintf(&b, "state %s sc=%v\n%s", stateKey(r.Test, res.Regs, res.Mem), res.SC, res.WitnessTSO.Format())
		if res.WitnessSC != nil {
			b.WriteString(res.WitnessSC.Format())
		}
	}
	for _, oc := range r.Outcomes {
		fmt.Fprintf(&b, "outcome %s: %v\n", oc.Outcome.Key(), oc.Class)
	}
	fmt.Fprintf(&b, "target %v unsat=%v vacuous=%v\n", r.Target.Class, r.Target.Unsatisfiable, r.Target.Vacuous)
	if r.Target.Witness != nil {
		b.WriteString(r.Target.Witness.Format())
	}
	return b.String()
}

func TestStatesRejectsUnknownModel(t *testing.T) {
	sb, _ := litmus.SuiteTest("sb")
	if _, err := States(sb, memmodel.Model(len(memmodel.Models)), DefaultLimits()); err == nil {
		t.Error("States accepted an unknown model")
	}
}

func TestRejectsInvalidTest(t *testing.T) {
	tc := &litmus.Test{Name: "bad", Threads: []litmus.Thread{{Instrs: []litmus.Instr{litmus.Store("x", 0)}}}}
	if _, err := Analyze(tc); err == nil {
		t.Error("Analyze accepted a test that fails validation")
	}
}

// FuzzAxiomVsOperational is the open-ended form of the cross-validation
// above. The input's first four bytes pick a generator shape — 2 to 4
// threads, up to 3 instructions each, 2 or 3 locations, a fence
// probability — and the rest seed the generator. For every model, States
// must equal the operational machine's state set, and the models must
// nest: SC ⊆ TSO ⊆ PSO. Tests beyond the default cutoff are skipped.
// The committed corpus in testdata/fuzz runs as ordinary tests.
func FuzzAxiomVsOperational(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 42})
	f.Add([]byte{1, 2, 1, 2, 77})
	f.Add([]byte{2, 1, 1, 4, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		threads := 2 + int(data[0])%3
		var seed [8]byte
		copy(seed[:], data[4:])
		cfg := litmus.GenConfig{
			MinThreads: threads,
			MaxThreads: threads,
			MaxInstrs:  1 + int(data[1])%3,
			Locs:       []litmus.Loc{"x", "y", "z"}[:2+int(data[2])%2],
			FenceProb:  float64(data[3]%5) / 10,
		}
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
		tc := litmus.Generate(rng, cfg, "fuzz")
		var sets []map[string]bool
		for _, m := range memmodel.Models {
			states, err := States(tc, m, DefaultLimits())
			var tle *TooLargeError
			if errors.As(err, &tle) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, litmus.Format(tc))
			}
			got := memmodelKeys(tc, states)
			diffKeys(t, tc.Name, fmt.Sprintf("States(%v) vs operational", m),
				got, memmodelKeys(tc, memmodel.OperationalAllowedSet(tc, m)))
			sets = append(sets, got)
		}
		for i := 1; i < len(sets); i++ {
			for k := range sets[i-1] {
				if !sets[i][k] {
					t.Errorf("%v state %q missing under %v", memmodel.Models[i-1], k, memmodel.Models[i])
				}
			}
		}
		if t.Failed() {
			t.Logf("failing test:\n%s", litmus.Format(tc))
		}
	})
}
