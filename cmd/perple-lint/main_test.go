package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint invokes run with captured stdout/stderr.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func writeLitmus(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sbSrc = `X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
`

func TestLintCleanTest(t *testing.T) {
	dir := t.TempDir()
	writeLitmus(t, dir, "sb.litmus", sbSrc)
	code, out, _ := runLint(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "ok: target") || !strings.Contains(out, "tso-only") {
		t.Errorf("missing ok line:\n%s", out)
	}
}

func TestLintForbiddenTargetWarns(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "exists (0:EAX=0 /\\ 1:EAX=0)", "exists (0:EAX=1 /\\ 1:EAX=1)", 1)
	// (1,1) is SC-allowed, so use mp shape instead for a forbidden target.
	src = `X86 mp
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV EAX,[y] ;
 MOV [y],$1  | MOV EBX,[x] ;
exists (1:EAX=1 /\ 1:EBX=0)
`
	writeLitmus(t, dir, "mp.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (warnings are not fatal by default):\n%s", code, out)
	}
	if !strings.Contains(out, "warn:") || !strings.Contains(out, "forbidden") {
		t.Errorf("missing forbidden warning:\n%s", out)
	}
	if code, _, _ := runLint(t, "-strict", dir); code != 1 {
		t.Errorf("-strict exit %d, want 1", code)
	}
}

func TestLintMalformedCondition(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "0:EAX=0", "0:ECX=0", 1) // undefined register
	writeLitmus(t, dir, "bad.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "line 6") {
		t.Errorf("error should carry the source line:\n%s", out)
	}
}

func TestLintUnsatisfiable(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "0:EAX=0", "0:EAX=7", 1) // 7 never stored to y
	writeLitmus(t, dir, "unsat.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "unsatisfiable") {
		t.Errorf("missing unsatisfiable error:\n%s", out)
	}
}

func TestLintWitness(t *testing.T) {
	dir := t.TempDir()
	writeLitmus(t, dir, "sb.litmus", sbSrc)
	_, out, _ := runLint(t, "-witness", dir)
	if !strings.Contains(out, "rf:") || !strings.Contains(out, "co:") {
		t.Errorf("missing witness rendering:\n%s", out)
	}
}

func TestLintSuite(t *testing.T) {
	code, out, _ := runLint(t, "-suite")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "40 tests: 0 errors") {
		t.Errorf("suite lint summary unexpected:\n%s", out)
	}
}

func TestLintNoInputs(t *testing.T) {
	code, _, errOut := runLint(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no inputs") {
		t.Errorf("missing usage error: %q", errOut)
	}
}
