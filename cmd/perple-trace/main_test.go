package main

import (
	"os"
	"strings"
	"testing"
)

// runTrace invokes run with captured stdout/stderr.
func runTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outFile, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errFile, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outFile, errFile)
	outB, _ := os.ReadFile(outFile.Name())
	errB, _ := os.ReadFile(errFile.Name())
	return code, string(outB), string(errB)
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
