package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perple/internal/litmus"
)

func TestSpecDefaults(t *testing.T) {
	var s Spec
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Tools, []string{"perple-heur"}) {
		t.Fatalf("default tools = %v", s.Tools)
	}
	if !reflect.DeepEqual(s.Presets, []string{"default"}) {
		t.Fatalf("default presets = %v", s.Presets)
	}
	if s.Iterations != DefaultIterations || s.ShardSize != DefaultIterations {
		t.Fatalf("default budget = %d/%d", s.Iterations, s.ShardSize)
	}
	if s.Seed != 1 || s.MaxRetries != DefaultMaxRetries || s.Workers <= 0 {
		t.Fatalf("defaults: seed=%d retries=%d workers=%d", s.Seed, s.MaxRetries, s.Workers)
	}
}

func TestSpecRejectsBadInput(t *testing.T) {
	for _, s := range []Spec{
		{Tools: []string{"nonsense"}},
		{Tools: []string{"litmus7-warp"}},
		{Presets: []string{"hyperdrive"}},
		{Iterations: -5},
		{ShardSize: -1},
	} {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
	if _, err := ParseSpec([]byte(`{"iterations": 10, "bogus_field": 1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestJobExpansionDeterministic(t *testing.T) {
	spec := Spec{
		Tests:      []string{"sb", "mp"},
		Tools:      []string{"perple-heur", "litmus7-user"},
		Presets:    []string{"default", "pso"},
		Iterations: 1000,
		ShardSize:  300,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tests, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 2 || tests[0].Name != "mp" || tests[1].Name != "sb" {
		t.Fatalf("corpus = %v", tests)
	}

	jobs := spec.Jobs(tests)
	// 2 tests × 2 tools × 2 presets × 4 shards (300+300+300+100).
	if len(jobs) != 32 {
		t.Fatalf("expanded %d jobs, want 32", len(jobs))
	}
	var iters int
	for i, job := range jobs {
		if job.ID != i {
			t.Fatalf("job %d has ID %d", i, job.ID)
		}
		if job.Seed <= 0 {
			t.Fatalf("job %d has non-positive seed %d", i, job.Seed)
		}
		iters += job.N
	}
	if iters != 8*1000 {
		t.Fatalf("total shard iterations = %d, want 8000", iters)
	}

	again := spec.Jobs(tests)
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("job expansion is not deterministic")
	}

	// Seeds depend on shard identity, not enumeration order: appending a
	// tool must not disturb existing shards' seeds.
	wider := spec
	wider.Tools = append([]string{}, spec.Tools...)
	wider.Tools = append(wider.Tools, "litmus7-timebase")
	seedOf := func(jobs []Job) map[string]int64 {
		m := map[string]int64{}
		for _, j := range jobs {
			m[groupKey(j.Test, j.Tool, j.Preset)+string(rune(j.Shard))] = j.Seed
		}
		return m
	}
	wideSeeds := seedOf(wider.Jobs(tests))
	for key, seed := range seedOf(jobs) {
		if wideSeeds[key] != seed {
			t.Fatalf("seed for %q changed when the spec grew", key)
		}
	}

	// Distinct shards draw distinct seeds (FNV collisions over a handful
	// of shards would indicate a hashing bug).
	seen := map[int64]bool{}
	for _, j := range jobs {
		if seen[j.Seed] {
			t.Fatalf("duplicate shard seed %d", j.Seed)
		}
		seen[j.Seed] = true
	}
}

func TestCorpusFromDirectory(t *testing.T) {
	spec := Spec{Dir: "../../testdata/suite"}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tests, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 30 {
		t.Fatalf("suite corpus has %d tests", len(tests))
	}
	for i := 1; i < len(tests); i++ {
		if tests[i-1].Name >= tests[i].Name {
			t.Fatalf("corpus not sorted: %q before %q", tests[i-1].Name, tests[i].Name)
		}
	}
}

func TestCorpusRejectsUnknownTestFilter(t *testing.T) {
	spec := Spec{Tests: []string{"sb", "no-such-test"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Corpus(); err == nil {
		t.Fatal("unknown test name accepted")
	}
}

func TestCorpusDirIsRecursiveAndMustBeADirectory(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "nested")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sb", "mp"} {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		where := dir
		if name == "mp" {
			where = sub
		}
		if err := os.WriteFile(filepath.Join(where, name+".litmus"), []byte(litmus.Format(test)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec := Spec{Dir: dir}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	tests, err := spec.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 2 || tests[0].Name != "mp" || tests[1].Name != "sb" {
		t.Fatalf("corpus = %v, want [mp sb]", tests)
	}

	spec.Dir = filepath.Join(dir, "sb.litmus")
	if _, err := spec.Corpus(); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("a file as Dir: err = %v, want a not-a-directory error", err)
	}
}
