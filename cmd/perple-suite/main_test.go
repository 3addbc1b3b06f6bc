package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"perple/internal/campaign"
)

// runSuite invokes run with captured stdout/stderr.
func runSuite(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// Non-convertible tests fall back to litmus7-user under a PerpLE tool,
// and the fallback verifies its witnesses: 6 of them × 500/4 sampled
// iterations.
func TestSuiteTraceVerifyCoversFallback(t *testing.T) {
	code, out, errOut := runSuite(t, "-n", "500", "-trace-verify", "4")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "trace-verify: 750 witnesses checked (stride 4), 0 violation(s)\n") {
		t.Errorf("want 750 witnesses checked; output:\n%s", out)
	}
	if !strings.Contains(out, "perple-heur  default  1       500    ") ||
		!strings.Contains(out, "not convertible") {
		t.Errorf("want PerpLE rows and noted fallback rows; output:\n%s", out)
	}
}

func TestSuiteAxiomRejectExcludesForbidden(t *testing.T) {
	code, out, errOut := runSuite(t, "-axiom", "reject", "-n", "200")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errOut)
	}
	rejected := regexp.MustCompile(`(?m)^axiom: (\S+): target statically rejected \(forbidden\); excluded from the sweep$`).
		FindAllStringSubmatch(out, -1)
	if len(rejected) != 26 {
		t.Fatalf("%d tests rejected, want 26; output:\n%s", len(rejected), out)
	}
	if !strings.Contains(out, "campaign: 14 jobs (14 tests)\n") {
		t.Errorf("want 14 jobs after rejection; output:\n%s", out)
	}
	for _, m := range rejected {
		if regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m[1]) + ` `).MatchString(out) {
			t.Errorf("rejected test %s still has a table row; output:\n%s", m[1], out)
		}
	}
}

const sbSrc = `X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
`

func TestSuiteDuplicateTestNameFails(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.litmus", "b.litmus"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(sbSrc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errOut := runSuite(t, "-dir", dir, "-n", "100")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out)
	}
	if !strings.Contains(errOut, `defines test "sb" twice`) {
		t.Errorf("stderr %q does not name the duplicate", errOut)
	}
}

func TestSuiteOutputIndependentOfWorkers(t *testing.T) {
	code1, out1, errOut := runSuite(t, "-mixed", "-n", "2000", "-workers", "1")
	if code1 != 0 {
		t.Fatalf("-workers 1: exit %d; stderr:\n%s", code1, errOut)
	}
	code4, out4, errOut := runSuite(t, "-mixed", "-n", "2000", "-workers", "4")
	if code4 != 0 {
		t.Fatalf("-workers 4: exit %d; stderr:\n%s", code4, errOut)
	}
	if out1 != out4 {
		t.Errorf("stdout differs between -workers 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", out1, out4)
	}
	if !strings.Contains(out1, "campaign totals: 80000 iterations") {
		t.Errorf("unexpected totals:\n%s", out1)
	}
}

func TestSuiteUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-tool", "perple-bogus"},
		{"-tool", "litmus7-bogus"},
		{"-preset", "bogus"},
		{"-axiom", "bogus"},
		{"-trace-verify", "0"},
		{"-n", "-5"},
		{"-campaign"}, // the flag is gone: every sweep is a campaign
		{"-spec", filepath.Join(t.TempDir(), "missing.json")},
	} {
		code, _, errOut := runSuite(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut)
		}
	}
}

// TestSuiteRemoteMatchesLocal runs the same spec through -remote
// against an in-process server and worker, and locally: the rendered
// tables must be identical.
func TestSuiteRemoteMatchesLocal(t *testing.T) {
	args := []string{"-mixed", "-n", "300", "-shard-size", "100"}
	code, local, errOut := runSuite(t, args...)
	if code != 0 {
		t.Fatalf("local: exit %d; stderr:\n%s", code, errOut)
	}

	// The worker starts once the submission has been served, since it
	// must name the campaign; dispatch campaigns are numbered from c0001.
	srv := campaign.NewServer()
	defer srv.CancelAll()
	h := srv.Handler()
	submitted := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/campaigns" {
			once.Do(func() { close(submitted) })
		}
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		select {
		case <-submitted:
			w := campaign.NewWorker(campaign.WorkerOptions{BaseURL: ts.URL, Campaign: "c0001", Parallel: 1})
			workerErr <- w.Run(ctx)
		case <-ctx.Done():
			workerErr <- ctx.Err()
		}
	}()
	code, remote, errOut := runSuite(t, append(args, "-remote", ts.URL)...)
	if code != 0 {
		t.Fatalf("remote: exit %d; stderr:\n%s", code, errOut)
	}
	if err := <-workerErr; err != nil {
		t.Errorf("worker: %v", err)
	}
	table := func(out string) string { return out[strings.Index(out, "test "):] }
	if table(local) != table(remote) {
		t.Errorf("remote table differs from local:\n--- local ---\n%s\n--- remote ---\n%s", local, remote)
	}
}
