package main

import (
	"bytes"
	"strings"
	"testing"
)

// runDiy invokes run with captured stdout/stderr.
func runDiy(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestDiyStoreBuffering(t *testing.T) {
	code, out, errOut := runDiy(t, "-cycle", "PodWR Fre PodWR Fre", "-run", "2000")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut)
	}
	for _, want := range []string{
		"exists (0:EAX=0 /\\ 1:EAX=0)\n",
		"target under SC : forbidden\n",
		"target under TSO: allowed\n",
		"target under PSO: allowed\n",
		"perpetual conversion: ok (T_L = 2)\n",
		"  litmus7 timebase: 1542 target occurrences in 396267 ticks\n",
		"  PerpLE heuristic: 1863 target occurrences in 14739 ticks\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestDiyEdges(t *testing.T) {
	code, out, _ := runDiy(t, "-edges")
	if code != 0 || !strings.Contains(out, "PodWR  store;load") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}

func TestDiyUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "pass -cycle"},
		{[]string{"-cycle", "PodWR Bogus"}, "Bogus"},
		{[]string{"-cycle", "Wse PodWW Wse PodWW", "-o", t.TempDir()}, "-o requires a convertible test"},
	} {
		code, _, errOut := runDiy(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, errOut, tc.want)
		}
	}
}
