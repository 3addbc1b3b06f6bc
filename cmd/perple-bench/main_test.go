package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOut = `goos: linux
BenchmarkSimSB-2   	    1000	      1500 ns/op	       0 B/op	       0 allocs/op
BenchmarkCountSB   	     500	      3000 ns/op	   12.5 frames/op
PASS
`

// runBench invokes run with stdin read from the given text.
func runBench(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	in := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(in, []byte(stdin), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = saved }()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestBenchWritesSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, out, errOut := runBench(t, benchOut, "-o", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut)
	}
	if out != benchOut {
		t.Errorf("stdin not passed through:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	sim, count := sum.Benchmarks["BenchmarkSimSB"], sum.Benchmarks["BenchmarkCountSB"]
	if sim.NsPerOp != 1500 || sim.Gomaxprocs != 2 || sim.AllocsPerOp == nil || *sim.AllocsPerOp != 0 {
		t.Errorf("BenchmarkSimSB = %+v", sim)
	}
	if count.Gomaxprocs != 1 || count.Metrics["frames/op"] != 12.5 {
		t.Errorf("BenchmarkCountSB = %+v", count)
	}
}

func TestBenchCheckFlagsRegression(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if code, _, errOut := runBench(t, benchOut, "-o", base); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, errOut)
	}
	if code, _, errOut := runBench(t, benchOut, "-check", base); code != 0 {
		t.Errorf("unchanged run: exit %d; stderr:\n%s", code, errOut)
	}
	slower := strings.Replace(benchOut, "1500 ns/op", "6000 ns/op", 1)
	code, _, errOut := runBench(t, slower, "-check", base, "-maxratio", "3")
	if code != 1 || !strings.Contains(errOut, "REGRESSION BenchmarkSimSB") {
		t.Errorf("4x slower: exit %d, stderr %q; want exit 1 naming the benchmark", code, errOut)
	}
}

func TestBenchExitCodes(t *testing.T) {
	if code, _, errOut := runBench(t, "PASS\n"); code != 1 || !strings.Contains(errOut, "no benchmark lines") {
		t.Errorf("no benchmarks: exit %d, stderr %q; want 1", code, errOut)
	}
	if code, _, _ := runBench(t, benchOut, "-nosuchflag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
