package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"perple/internal/litmus"
)

// runRun invokes run with captured stdout/stderr.
func runRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

var hostTime = regexp.MustCompile(`; host [^\n]*`)

// The outcome counter's worker count must not change what it counts:
// the capped exhaustive table is the same serial and split two ways.
func TestRunExhaustiveWorkersInvariant(t *testing.T) {
	var tables []string
	for _, w := range []string{"1", "2"} {
		code, out, errOut := runRun(t, "-test", "sb", "-tool", "perple-exh", "-n", "3000", "-exhcap", "500", "-workers", w)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d; stderr:\n%s", w, code, errOut)
		}
		tables = append(tables, hostTime.ReplaceAllString(out, ""))
	}
	if tables[0] != tables[1] {
		t.Fatalf("-workers 1 and 2 differ:\n--- 1 ---\n%s\n--- 2 ---\n%s", tables[0], tables[1])
	}
	for _, want := range []string{
		"note: exhaustive counter examined the first 500 of 3000 iterations\n",
		"frames examined: 250000\n",
		" 806 ",
	} {
		if !strings.Contains(tables[0], want) {
			t.Errorf("output lacks %q:\n%s", want, tables[0])
		}
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	code, out, errOut := runRun(t, "-test", "sb", "-workers", "-1")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, out)
	}
	if !strings.Contains(errOut, "-workers must be at least 0") {
		t.Errorf("stderr %q does not name the flag", errOut)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "exactly one of -test"},
		{[]string{"-test", "sb", "-file", "sb.litmus"}, "exactly one of -test"},
		{[]string{"-test", "nosuch"}, "no suite test"},
		{[]string{"-test", "sb", "-tool", "perple-bogus"}, "unknown tool"},
		{[]string{"-test", "sb", "-tool", "litmus7-bogus"}, "unknown synchronization mode"},
		{[]string{"-test", "sb", "-outcomes", "some"}, "unknown -outcomes"},
		{[]string{"-test", "sb", "-model", "ARM"}, "unknown -model"},
		{[]string{"-test", "sb", "-preset", "bogus"}, "bogus"},
		{[]string{"-nosuchflag"}, "not defined"},
	} {
		code, _, errOut := runRun(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, errOut, tc.want)
		}
	}
}

// A test read with -file runs like the same suite test named by -test.
func TestRunFileMatchesSuiteTest(t *testing.T) {
	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sb.litmus")
	if err := os.WriteFile(path, []byte(litmus.Format(sb)), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, args := range [][]string{{"-test", "sb"}, {"-file", path}} {
		code, out, errOut := runRun(t, append(args, "-tool", "litmus7-user", "-n", "500")...)
		if code != 0 {
			t.Fatalf("%v: exit %d; stderr:\n%s", args, code, errOut)
		}
		outs = append(outs, regexp.MustCompile(`\([^)]* host\)`).ReplaceAllString(out, ""))
	}
	if outs[0] != outs[1] {
		t.Errorf("-file output differs from -test:\n%s\n---\n%s", outs[0], outs[1])
	}
}

func TestRunNonConvertibleUnderPerpLEFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "2+2w.litmus")
	if err := os.WriteFile(path, []byte(litmus.Format(litmus.NonConvertible()[0])), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runRun(t, "-file", path, "-n", "100")
	if code != 1 || errOut == "" {
		t.Errorf("exit %d, stderr %q; want exit 1 with the conversion error", code, errOut)
	}
}
