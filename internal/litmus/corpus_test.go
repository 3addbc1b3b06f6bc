package litmus

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestBuiltinIsSuiteThenNonConvertible(t *testing.T) {
	got := Builtin()
	nc := NonConvertible()
	if len(got) != len(Suite())+len(nc) {
		t.Fatalf("Builtin has %d tests, want %d", len(got), len(Suite())+len(nc))
	}
	for i, e := range Suite() {
		if got[i] != e.Test {
			t.Fatalf("Builtin[%d] = %s, want suite test %s", i, got[i].Name, e.Test.Name)
		}
	}
	for i, want := range nc {
		if got[len(Suite())+i].Name != want.Name {
			t.Fatalf("Builtin[%d] = %s, want %s", len(Suite())+i, got[len(Suite())+i].Name, want.Name)
		}
	}
}

// writeCorpus lays out a small tree: two tests at the top, one in a
// subdirectory, and a file the directory walk must skip.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sb, err := SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	mp, err := SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		"b.litmus":     Format(sb),
		"a.litmus":     Format(mp),
		"sub/c.litmus": Format(sb),
		"notes.txt":    "not a test",
	} {
		if err := os.WriteFile(filepath.Join(dir, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestExpandPaths(t *testing.T) {
	dir := writeCorpus(t)
	notes := filepath.Join(dir, "notes.txt")
	got, err := ExpandPaths(notes, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		notes, // a named file stands for itself, whatever its suffix
		filepath.Join(dir, "a.litmus"),
		filepath.Join(dir, "b.litmus"),
		filepath.Join(dir, "sub", "c.litmus"),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpandPaths = %v, want %v", got, want)
	}
	if _, err := ExpandPaths(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestLoadPathsAndParseFileErrors(t *testing.T) {
	dir := writeCorpus(t)
	tests, err := LoadPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tt := range tests {
		names = append(names, tt.Name)
	}
	if got := strings.Join(names, ","); got != "mp,sb,sb" {
		t.Fatalf("LoadPaths names = %s, want mp,sb,sb", got)
	}

	bad := filepath.Join(dir, "sub", "bad.litmus")
	if err := os.WriteFile(bad, []byte("X86 bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ParseFile(bad)
	if err == nil || strings.Contains(err.Error(), bad) || !strings.HasPrefix(err.Error(), "litmus: ") {
		t.Errorf("ParseFile error %v: want an unprefixed parse error", err)
	}
	_, err = LoadPaths(dir)
	if err == nil || !strings.HasPrefix(err.Error(), bad+": litmus: ") {
		t.Errorf("LoadPaths error %v: want it prefixed with %s", err, bad)
	}
}
