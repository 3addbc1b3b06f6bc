package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentsTableII(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{
		"Table II: perpetual litmus suite for x86-TSO (34 tests)\n",
		"classification mismatches vs Table II: 0\n",
		"[table2 completed in ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestExperimentsUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "fig99"`) || out.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", out.String(), errOut.String())
	}
}
