// The tests of this package cross-validate its operational store-buffer
// machine against the axiomatic checker in internal/axiom — two
// independent methods that must agree on every model — and pin the
// classifications the paper relies on. They live in an external test
// package because axiom imports memmodel.
package memmodel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"perple/internal/axiom"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// exact is the enumeration cutoff for the corpora here: the suite, the
// generated tests (at most 3 threads of 3 instructions) and the 4- and
// 5-edge critical cycles all fit, so every axiomatic answer is exact.
var exact = axiom.Limits{MaxThreads: 5, MaxEvents: 10}

func mustTest(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	return test
}

// axiomStates returns the final states the axiomatic checker
// allows under m.
func axiomStates(t *testing.T, test *litmus.Test, m memmodel.Model) []memmodel.State {
	t.Helper()
	states, err := axiom.States(test, m, exact)
	if err != nil {
		t.Fatalf("%s: %v", test.Name, err)
	}
	return states
}

// axiomAllows reports whether the axiomatic checker allows outcome
// o under m.
func axiomAllows(t *testing.T, test *litmus.Test, o litmus.Outcome, m memmodel.Model) bool {
	t.Helper()
	ok, err := axiom.Allowed(test, o, m, exact)
	if err != nil {
		t.Fatalf("%s: %v", test.Name, err)
	}
	return ok
}

// axiomOutcomes returns the test's register outcomes (AllOutcomes
// order) the axiomatic checker allows under m.
func axiomOutcomes(t *testing.T, test *litmus.Test, m memmodel.Model) []litmus.Outcome {
	t.Helper()
	states := axiomStates(t, test, m)
	var out []litmus.Outcome
	for _, o := range test.AllOutcomes() {
		for _, s := range states {
			if o.HoldsFull(s.Regs, s.Mem) {
				out = append(out, o)
				break
			}
		}
	}
	return out
}

// TestTableIIClassification is the reproduction of Table II's grouping:
// every suite target must be allowed/forbidden under x86-TSO exactly as
// the paper lists, and every allowed-group target must additionally be
// SC-forbidden (it demonstrates store buffering, which is what makes it a
// "target outcome").
func TestTableIIClassification(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			tsoAllowed := axiomAllows(t, e.Test, e.Test.Target, memmodel.TSO)
			if tsoAllowed != e.Allowed {
				t.Errorf("TSO allows target = %v, Table II says %v", tsoAllowed, e.Allowed)
			}
			if e.Allowed {
				if axiomAllows(t, e.Test, e.Test.Target, memmodel.SC) {
					t.Errorf("allowed-group target is SC-allowed; it would not demonstrate store buffering")
				}
			}
		})
	}
}

// TestOperationalMatchesAxiomaticOnSuite cross-validates the two
// independent model implementations on every suite test and both models.
func TestOperationalMatchesAxiomaticOnSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO} {
				ax := resultSetKeys(e.Test, axiomStates(t, e.Test, m))
				op := resultSetKeys(e.Test, memmodel.OperationalAllowedSet(e.Test, m))
				diff(t, e.Test.Name, m, ax, op)
			}
		})
	}
}

// TestOperationalMatchesAxiomaticOnRandomTests checks the equivalence on
// generator output with small shapes (the state spaces stay tractable),
// for all three models.
func TestOperationalMatchesAxiomaticOnRandomTests(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.2,
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	for i := 0; i < n; i++ {
		test := litmus.Generate(rng, cfg, "fuzz")
		for _, m := range memmodel.Models {
			ax := resultSetKeys(test, axiomStates(t, test, m))
			op := resultSetKeys(test, memmodel.OperationalAllowedSet(test, m))
			if !diff(t, test.Name, m, ax, op) {
				t.Logf("failing test:\n%s", litmus.Format(test))
				return
			}
		}
	}
}

func resultSetKeys(t *litmus.Test, rs []memmodel.State) map[string]bool {
	keys := map[string]bool{}
	for _, r := range rs {
		key := fmt.Sprint(r.Regs, "#")
		for _, loc := range t.Locs() {
			key += fmt.Sprint(r.Mem[loc], ",")
		}
		keys[key] = true
	}
	return keys
}

func diff(t *testing.T, name string, m memmodel.Model, ax, op map[string]bool) bool {
	t.Helper()
	ok := true
	for k := range ax {
		if !op[k] {
			t.Errorf("%s/%v: axiomatic allows %q, operational does not", name, m, k)
			ok = false
		}
	}
	for k := range op {
		if !ax[k] {
			t.Errorf("%s/%v: operational allows %q, axiomatic does not", name, m, k)
			ok = false
		}
	}
	return ok
}

// TestSCSubsetOfTSO: everything SC allows, TSO allows (TSO only relaxes).
func TestSCSubsetOfTSO(t *testing.T) {
	for _, e := range litmus.Suite() {
		sc := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.SC))
		tso := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.TSO))
		for k := range sc {
			if !tso[k] {
				t.Errorf("%s: SC result %q not TSO-allowed", e.Test.Name, k)
			}
		}
	}
}

func TestSBOutcomeSets(t *testing.T) {
	sb := mustTest(t, "sb")
	scOut := axiomOutcomes(t, sb, memmodel.SC)
	tsoOut := axiomOutcomes(t, sb, memmodel.TSO)
	if len(scOut) != 3 {
		t.Errorf("SC allows %d sb outcomes, want 3 (all but 0,0)", len(scOut))
	}
	if len(tsoOut) != 4 {
		t.Errorf("TSO allows %d sb outcomes, want 4 (all)", len(tsoOut))
	}
	// The target (0,0) is the TSO-only one.
	found := false
	for _, o := range tsoOut {
		if o.Equal(sb.Target) {
			found = true
		}
	}
	if !found {
		t.Error("TSO outcome set misses the sb target")
	}
	for _, o := range scOut {
		if o.Equal(sb.Target) {
			t.Error("SC outcome set wrongly contains the sb target")
		}
	}
}

func TestLBForbiddenBothModels(t *testing.T) {
	lb := mustTest(t, "lb")
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO} {
		if axiomAllows(t, lb, lb.Target, m) {
			t.Errorf("lb target allowed under %v", m)
		}
	}
	// But the all-zero outcome is allowed everywhere.
	zero := litmus.Outcome{Conds: []litmus.Cond{
		{Thread: 0, Reg: 0, Value: 0}, {Thread: 1, Reg: 0, Value: 0},
	}}
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.TSO} {
		if !axiomAllows(t, lb, zero, m) {
			t.Errorf("lb zero outcome forbidden under %v", m)
		}
	}
}

func TestFencesRestoreSC(t *testing.T) {
	// amd5 is sb with fences: its outcome set must equal sb's SC set.
	amd5 := mustTest(t, "amd5")
	sb := mustTest(t, "sb")
	fenced := axiomOutcomes(t, amd5, memmodel.TSO)
	sc := axiomOutcomes(t, sb, memmodel.SC)
	if len(fenced) != len(sc) {
		t.Fatalf("amd5 under TSO allows %d outcomes, sb under SC allows %d", len(fenced), len(sc))
	}
}

func TestFinalMemoryConditions(t *testing.T) {
	for _, test := range litmus.NonConvertible() {
		test := test
		t.Run(test.Name, func(t *testing.T) {
			// Every non-convertible example target must at least be
			// decidable; coww's target (final x=1 after x=1;x=2 in program
			// order) is forbidden under both models.
			if test.Name == "coww" {
				if axiomAllows(t, test, test.Target, memmodel.TSO) {
					t.Error("coww target should be forbidden under TSO")
				}
				if memmodel.OperationalAllowed(test, test.Target, memmodel.TSO) {
					t.Error("coww target should be operationally impossible under TSO")
				}
			}
			// 2+2w's target needs store-store reordering, which TSO's FIFO
			// buffers forbid; both checkers must agree.
			if test.Name == "2+2w" {
				if axiomAllows(t, test, test.Target, memmodel.TSO) {
					t.Error("2+2w final state x=1,y=1 should be TSO-forbidden")
				}
				if memmodel.OperationalAllowed(test, test.Target, memmodel.TSO) {
					t.Error("2+2w target should be operationally impossible under TSO")
				}
			}
		})
	}
}

func TestModelString(t *testing.T) {
	if memmodel.SC.String() != "SC" || memmodel.TSO.String() != "TSO" {
		t.Error("model names wrong")
	}
	if memmodel.Model(9).String() == "" {
		t.Error("unknown model should still render")
	}
}
