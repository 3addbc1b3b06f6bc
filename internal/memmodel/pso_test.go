package memmodel_test

import (
	"math/rand"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// TestPSOClassification pins the expected PSO status of representative
// suite targets: W→W relaxation newly allows the message-passing family
// (unless fenced), while load-order, store-atomicity and coherence
// violations stay forbidden.
func TestPSOClassification(t *testing.T) {
	want := map[string]bool{
		// Newly allowed under PSO: the writer's stores drain out of order.
		"mp":      true,
		"safe018": true, // mp chain through z
		"safe028": true, // mp with two readers
		// Fences restore store order: still forbidden.
		"mp+fences": false,
		"safe022":   false, // writer-fenced mp
		// TSO-allowed targets remain allowed (PSO only relaxes).
		"sb":           true,
		"iwp23b":       true,
		"podwr001":     true,
		"rwc-unfenced": true,
		// Load-load order and store atomicity still hold.
		"lb":         false,
		"iriw":       false,
		"safe027":    false,
		"rwc-fenced": false,
		// Coherence still holds (per-location order is kept).
		"co-iriw":    false,
		"n4":         false,
		"n5":         false,
		"safe006":    false,
		"mp+staleld": false,
	}
	for name, allowed := range want {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := axiomAllows(t, test, test.Target, memmodel.PSO); got != allowed {
			t.Errorf("%s: PSO allows target = %v, want %v", name, got, allowed)
		}
	}
}

// TestPSOAgreement cross-validates the axiomatic and operational PSO
// models on the whole suite.
func TestPSOAgreement(t *testing.T) {
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			ax := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.PSO))
			op := resultSetKeys(e.Test, memmodel.OperationalAllowedSet(e.Test, memmodel.PSO))
			diff(t, e.Test.Name, memmodel.PSO, ax, op)
		})
	}
}

// TestPSOAgreementRandom checks the equivalence on a second generated
// corpus, for PSO and for the stronger models alongside it.
func TestPSOAgreementRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := litmus.GenConfig{
		MinThreads: 2, MaxThreads: 3, MaxInstrs: 3,
		Locs: []litmus.Loc{"x", "y"}, FenceProb: 0.2,
	}
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		test := litmus.Generate(rng, cfg, "psofuzz")
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

// TestModelHierarchy: SC ⊆ TSO ⊆ PSO on every suite test (weaker models
// only add behaviours).
func TestModelHierarchy(t *testing.T) {
	for _, e := range litmus.Suite() {
		sc := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.SC))
		tso := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.TSO))
		pso := resultSetKeys(e.Test, axiomStates(t, e.Test, memmodel.PSO))
		for k := range sc {
			if !tso[k] {
				t.Errorf("%s: SC result %q not in TSO", e.Test.Name, k)
			}
		}
		for k := range tso {
			if !pso[k] {
				t.Errorf("%s: TSO result %q not in PSO", e.Test.Name, k)
			}
		}
	}
}

func TestPSOString(t *testing.T) {
	if memmodel.PSO.String() != "PSO" {
		t.Errorf("PSO renders as %q", memmodel.PSO.String())
	}
	if len(memmodel.Models) != 3 {
		t.Errorf("Models = %v", memmodel.Models)
	}
}
