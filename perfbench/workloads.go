package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"perple/internal/campaign"
	"perple/internal/litmus"
)

// metaJSON records the default seed, the held-out seed later claims
// must also hold on, and the expected canonical-result digest of every
// (workload, scale, seed) measured so far. baseline.json beside it
// documents each workload's layers and the baseline numbers.
//
//go:embed meta.json
var metaJSON []byte

var meta = func() (m struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	Digests map[string]string `json:"digests"`
}) {
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: embedded meta.json: %v", err))
	}
	return m
}()

// digestKey names one recorded canonical-result digest.
func digestKey(workload, scale string, seed int64) string {
	return fmt.Sprintf("%s/%s/seed=%d", workload, scale, seed)
}

// workload is one named campaign shape. All run closed-loop from one
// process with GOMAXPROCS executors: local workloads on Campaign.Run's
// worker pool, the fleet workload as that many loopback HTTP workers
// with Parallel 1 each.
type workload struct {
	name  string
	fleet bool
	tools []string
	// traceVerify is Spec.TraceVerify (a witness-sampling stride).
	traceVerify string
	// exhCap is Spec.ExhCap (0: the campaign default).
	exhCap int
	// full and tiny are the campaign sizes of a measured run and of the
	// self-test.
	full, tiny size
}

// size fixes the work one repetition of a workload does.
type size struct {
	iterations, shard int
	// corpus is the generated corpus size (fleet workload only; the
	// local workloads run the 40-test testdata/suite corpus).
	corpus int
}

var workloads = []*workload{
	{
		// The synced simulator loop, histogram observe and witness-trace
		// verification do almost all the work; core, wire and dispatch
		// none. The stride keeps verification a visible minority.
		name:        "suite-litmus7",
		tools:       []string{"litmus7-user"},
		traceVerify: "8",
		full:        size{iterations: 50000, shard: 10000},
		tiny:        size{iterations: 2000, shard: 1000},
	},
	{
		// Core counting (heuristic and exhaustive/factorized) dominates,
		// on the perpetual simulator; no trace, wire or durability work.
		name:   "suite-perple",
		tools:  []string{"perple-heur", "perple-exh"},
		exhCap: 1000,
		full:   size{iterations: 8000, shard: 2000},
		tiny:   size{iterations: 1000, shard: 500},
	},
	{
		// Dispatch, wire, WAL/checkpoint writes and merge dominate: small
		// shards keep the simulator light. The generated corpus includes
		// tests beyond the axiom checker's enumeration cutoff; 2400 tests
		// average out how often the drawn targets occur, which spread
		// detections per second from seed to seed on smaller corpora.
		name:  "fleet-durable",
		fleet: true,
		tools: []string{"litmus7-user"},
		full:  size{iterations: 500, shard: 500, corpus: 2400},
		tiny:  size{iterations: 200, shard: 100, corpus: 9},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// size returns the campaign size for the configured scale.
func (c config) size() size {
	if c.scale == "tiny" {
		return c.workload.tiny
	}
	return c.workload.full
}

// corpusDir resolves (and for the fleet workload, generates) the .litmus
// directory the spec names. The fleet corpus is drawn from the seed, so
// the program only ever sees generated inputs.
func (c config) corpusDir(scratch string) (string, error) {
	if !c.workload.fleet {
		return filepath.Join(c.root, "testdata", "suite"), nil
	}
	dir := filepath.Join(scratch, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// Equal strata per thread count keep the corpus's cost close to the
	// same from seed to seed, so the spread across seeds measures the
	// program rather than the draw.
	rng := rand.New(rand.NewSource(c.seed))
	gen := litmus.DefaultGenConfig()
	per := c.size().corpus / (gen.MaxThreads - gen.MinThreads + 1)
	for threads := gen.MinThreads; threads <= gen.MaxThreads; threads++ {
		cfg := gen
		cfg.MinThreads, cfg.MaxThreads = threads, threads
		for _, t := range litmus.GenerateCorpus(rng, cfg, fmt.Sprintf("gen%dt", threads), per) {
			if err := os.WriteFile(filepath.Join(dir, t.Name+".litmus"), []byte(litmus.Format(t)), 0o644); err != nil {
				return "", err
			}
		}
	}
	return dir, nil
}

// spec builds the campaign spec for a corpus directory.
func (c config) spec(dir string) campaign.Spec {
	sz := c.size()
	return campaign.Spec{
		Name:        c.workload.name,
		Dir:         dir,
		Tools:       c.workload.tools,
		Seed:        c.seed,
		Iterations:  sz.iterations,
		ShardSize:   sz.shard,
		TraceVerify: c.workload.traceVerify,
		ExhCap:      c.workload.exhCap,
	}
}

// budget is the iteration total a complete campaign must merge: every
// .litmus file in the corpus, times every tool, times the per-test
// budget. It is counted from the directory, independently of job
// expansion, so a campaign that drops or duplicates work fails the
// check.
func budget(dir string, spec campaign.Spec) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	files := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".litmus") {
			files++
		}
	}
	return int64(files) * int64(len(spec.Tools)) * int64(spec.Iterations), nil
}
