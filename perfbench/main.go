// Command perfbench is the campaign benchmark: it drives real PerpLE
// campaigns through the public API of internal/campaign on one of three
// named workloads and prints one JSON result line.
//
//	perfbench --workload suite-litmus7 --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (iterations and
// target detections per host second, set-up time, peak RSS, success
// ratio), measured with no tracing in the way. With --trace 1 it reports
// per-layer metrics instead: it times calls into each layer's public
// functions from this package (wrappers around the HTTP handler, the
// worker transport and the checkpoint/WAL filesystem, plus a replay of
// the job list through litmus, axiom, sim, harness, trace and core) and
// writes the recorded spans to <workdir>/trace-<workload>-seed<n>.json.
//
// Every run checks the campaign's outputs (see check.go) and exits 1 if
// any check fails. Run it from the repository root; run.sh builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    string // "full" or "tiny" (the self-test size)
	root     string // repository root, where testdata/suite lives
	workDir  string // scratch space for corpora, checkpoints, WALs, spans
	// expectDigest, when set, overrides the recorded canonical-result
	// digest for this (workload, seed, scale).
	expectDigest string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite-litmus7, suite-perple or fleet-durable")
	seed := fs.Int64("seed", meta.Seeds.Default, "workload seed (feeds Spec.Seed and the fleet corpus generator)")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	scale := fs.String("scale", "full", "workload size: full or tiny")
	root := fs.String("root", ".", "repository root")
	workDir := fs.String("workdir", ".bench_build", "scratch directory (a relative path is taken from the root)")
	expect := fs.String("expect-digest", "", "expected canonical-result SHA-256 (default: the recorded one, if any)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "tiny") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, scale %q)\n", *name, *seconds, *trace, *scale)
		return 2
	}
	cfg := config{
		workload:     w,
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		trace:        *trace == 1,
		scale:        *scale,
		root:         *root,
		workDir:      *workDir,
		expectDigest: *expect,
	}
	if !filepath.IsAbs(cfg.workDir) {
		cfg.workDir = filepath.Join(cfg.root, cfg.workDir)
	}
	res, err := runBenchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runBenchmark sets up a private scratch directory, runs the requested
// mode and removes the scratch again (the span file is kept).
func runBenchmark(cfg config, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{cfg: cfg, scratch: scratch, log: stderr}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return b.traced()
	}
	return b.untraced()
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}
