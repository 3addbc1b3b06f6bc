package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTrace invokes run with captured stdout/stderr.
func runTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestTraceRejectsWorkersBelowOne(t *testing.T) {
	for _, w := range []string{"0", "-3"} {
		code, stdout, stderr := runTrace(t, "-suite", "-n", "50", "-workers", w)
		if code != 2 {
			t.Fatalf("-workers %s: exit %d, want 2 (stdout %q)", w, code, stdout)
		}
		if !strings.Contains(stderr, "-workers must be at least 1") {
			t.Fatalf("-workers %s: stderr %q does not name the flag", w, stderr)
		}
	}
}

func TestTraceLoadsDirectories(t *testing.T) {
	code, stdout, stderr := runTrace(t, "-n", "200", "../../testdata/suite")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr %q", code, stderr)
	}
	if !strings.HasPrefix(stdout, "verifying 40 test(s) against x86-TSO") {
		t.Errorf("unexpected header:\n%s", stdout)
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.litmus")
	if err := os.WriteFile(bad, []byte("X86 bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runTrace(t, dir)
	if code != 2 || !strings.Contains(stderr, bad+": litmus: ") {
		t.Errorf("malformed file: exit %d, stderr %q; want exit 2 naming %s", code, stderr, bad)
	}
}
