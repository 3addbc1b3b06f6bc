package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perple/internal/litmus"
)

// runConvert invokes run with captured stdout/stderr.
func runConvert(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestConvertPrintSuiteAndFileAgree(t *testing.T) {
	code, fromSuite, errOut := runConvert(t, "-test", "sb", "-print")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut)
	}
	for _, name := range []string{"sb_count.go", "sb_counth.go", "sb_params.txt", "sb_t0.s", "sb_t1.s"} {
		if !strings.Contains(fromSuite, "===== "+name+" =====\n") {
			t.Errorf("-print lacks %s:\n%s", name, fromSuite)
		}
	}

	sb, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sb.litmus")
	if err := os.WriteFile(path, []byte(litmus.Format(sb)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, fromFile, errOut := runConvert(t, "-file", path, "-print")
	if code != 0 {
		t.Fatalf("-file: exit %d; stderr:\n%s", code, errOut)
	}
	if fromFile != fromSuite {
		t.Errorf("-file output differs from -test:\n%s\n---\n%s", fromFile, fromSuite)
	}
}

func TestConvertWritesFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	code, out, errOut := runConvert(t, "-test", "sb", "-o", dir)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut)
	}
	if want := filepath.Join(dir, "sb_t0.s") + "\n"; !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "sb_count.go")); err != nil {
		t.Error(err)
	}
}

func TestConvertListAndExplain(t *testing.T) {
	code, out, _ := runConvert(t, "-list")
	if code != 0 || !strings.Contains(out, "sb ") {
		t.Errorf("-list: exit %d, output:\n%s", code, out)
	}
	code, out, _ = runConvert(t, "-test", "sb", "-explain")
	if code != 0 || !strings.Contains(out, "happens-before edges") {
		t.Errorf("-explain: exit %d, output:\n%s", code, out)
	}
}

func TestConvertUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "exactly one of -test"},
		{[]string{"-test", "sb", "-file", "sb.litmus"}, "exactly one of -test"},
		{[]string{"-test", "nosuch"}, "no suite test"},
		{[]string{"-file", filepath.Join(t.TempDir(), "missing.litmus")}, "missing.litmus"},
		{[]string{"-test", "sb", "-outcomes", "some"}, "unknown -outcomes"},
		{[]string{"-test", "sb", "-explain", "-outcomes", "some"}, "unknown -outcomes"},
	} {
		code, _, errOut := runConvert(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, errOut, tc.want)
		}
	}
}

func TestConvertNonConvertibleFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "2+2w.litmus")
	if err := os.WriteFile(path, []byte(litmus.Format(litmus.NonConvertible()[0])), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runConvert(t, "-file", path, "-print")
	if code != 1 || errOut == "" {
		t.Errorf("exit %d, stderr %q; want exit 1 with the conversion error", code, errOut)
	}
}
