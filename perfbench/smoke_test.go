package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runTiny runs the benchmark at the self-test size and returns its exit
// code and parsed last output line (nil when none parses).
func runTiny(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--seed", "1", "--seconds", "1", "--scale", "tiny", "--root", "..", "--workdir", t.TempDir()}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return code, nil, errb.String()
	}
	return code, &res, errb.String()
}

// TestSmoke runs every workload in both modes at tiny sizes and checks
// that each run passes its correctness checks and prints exactly the
// metrics BENCHMARK.json names, each with its declared unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	for _, w := range bm.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{
			0: func() (out []struct{ Name, Unit string }) {
				for _, m := range bm.EndToEnd {
					out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
				}
				return out
			}(),
			1: func() (out []struct{ Name, Unit string }) {
				for _, m := range bm.PerLayer {
					out = append(out, struct{ Name, Unit string }{m.Name, m.Unit})
				}
				return out
			}(),
		} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				code, res, log := runTiny(t, "--workload", w.Name, "--trace", strconv.Itoa(trace))
				if code != 0 || res == nil || !res.Correct {
					t.Fatalf("exit %d, result %+v\n%s", code, res, log)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestTamperedDigestFails checks that a wrong expected digest fails the
// run: the result says correct=false and the exit code is non-zero.
func TestTamperedDigestFails(t *testing.T) {
	for _, w := range workloads {
		code, res, _ := runTiny(t, "--workload", w.name, "--trace", "0", "--expect-digest", strings.Repeat("0", 64))
		if code == 0 || res == nil || res.Correct {
			t.Errorf("%s: tampered digest gave exit %d, result %+v", w.name, code, res)
		}
	}
}
