// Command perple-suite runs a whole corpus of litmus tests — the built-in
// Table II suite or a directory of .litmus files — under one testing
// tool, printing a per-test summary and campaign totals. It is the
// Section VII-G workflow as a tool: PerpLE for the convertible tests and
// litmus7 for the rest.
//
// Every sweep is a campaign (internal/campaign), the same engine behind
// perple-serve: sharded jobs with identity-derived seeds, a
// context-aware worker pool, retries, and optional checkpoint/resume. A
// failing job does not abort the sweep: failures are collected,
// summarized after the table, and reflected in the exit status. The
// output does not depend on -workers.
//
// Usage:
//
//	perple-suite                                   # built-in suite, PerpLE heuristic
//	perple-suite -dir testdata/suite -n 10000
//	perple-suite -tool litmus7-timebase
//	perple-suite -preset pso                       # fault-injection machine
//	perple-suite -mixed                            # §VII-G campaign: PerpLE where
//	                                               # convertible, litmus7-user elsewhere
//	perple-suite -dir testdata/suite -n 50000 -shard-size 10000 \
//	    -checkpoint /tmp/suite.json                # Ctrl-C, rerun, and it resumes
//	perple-suite -spec campaign.json
//
// With -remote the same spec is submitted to a running perple-serve as a
// dispatch-mode campaign: perple-worker fleet members execute the shards
// and this command polls until done, then renders the merged results —
// byte-identical to what the local run would have produced, by the
// dispatch layer's determinism contract.
//
//	perple-suite -remote http://localhost:8077 -n 50000 -shard-size 10000
//
// Exit status: 0 success, 1 failed jobs, trace violations or a run
// error, 2 usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"perple/internal/campaign"
	"perple/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-suite", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var spec campaign.Spec
	fl.StringVar(&spec.Dir, "dir", "", "directory of .litmus files (default: the built-in Table II suite)")
	tool := fl.String("tool", "perple-heur", "perple-heur, perple-exh, or litmus7-{user,userfence,pthread,timebase,none}")
	mixed := fl.Bool("mixed", false, "run the Section VII-G campaign: PerpLE-heuristic for convertible tests, litmus7-user for the rest")
	fl.IntVar(&spec.Iterations, "n", 10000, "iterations per test")
	fl.Int64Var(&spec.Seed, "seed", 1, "campaign seed; per-shard simulator seeds derive from it")
	preset := fl.String("preset", "default", "machine preset (default, pso, slow-drain, fast-drain, no-preempt, heavy-preempt)")
	fl.IntVar(&spec.ExhCap, "exhcap", 2000, "iteration cap for the exhaustive counter per shard (-1 = uncapped)")
	specPath := fl.String("spec", "", "campaign spec JSON file (replaces the spec flags other than -axiom and -trace-verify)")
	checkpoint := fl.String("checkpoint", "", "campaign checkpoint file: progress is saved there and a rerun resumes")
	fl.IntVar(&spec.ShardSize, "shard-size", 0, "iterations per shard (default: one shard per test/tool/preset)")
	fl.IntVar(&spec.Workers, "workers", 0, "worker goroutines (default: GOMAXPROCS); results do not depend on it")
	fl.IntVar(&spec.IntraWorkers, "intra-workers", 1, "worker goroutines inside each job (result-affecting; recorded in checkpoints)")
	remote := fl.String("remote", "", "perple-serve base URL: submit the campaign as a dispatch job for perple-worker fleet members")
	fl.StringVar(&spec.Axiom, "axiom", "", "axiom policy: warn (default) flags statically forbidden/unsatisfiable targets, reject drops them from the sweep, off skips the check")
	fl.StringVar(&spec.TraceVerify, "trace-verify", "", "witness-trace verification for litmus7 runs: off (default), all, or a decimal stride k — check every k-th iteration's rf/co witness against x86-TSO")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	if *specPath != "" {
		loaded, err := campaign.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(stderr, "perple-suite: %v\n", err)
			return 2
		}
		if spec.Axiom != "" {
			loaded.Axiom = spec.Axiom
		}
		if spec.TraceVerify != "" {
			loaded.TraceVerify = spec.TraceVerify
		}
		spec = loaded
	} else {
		spec.Tools = []string{*tool}
		if *mixed {
			spec.Tools = []string{"mixed"}
		}
		spec.Presets = []string{*preset}
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "perple-suite: %v\n", err)
		return 2
	}

	var err error
	if *remote != "" {
		err = runRemote(*remote, spec, stdout, stderr)
	} else {
		err = runLocal(spec, *checkpoint, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perple-suite: %v\n", err)
		return 1
	}
	return 0
}

// runLocal runs the campaign in-process and renders its results.
func runLocal(spec campaign.Spec, checkpoint string, stdout, stderr io.Writer) error {
	camp, err := campaign.New(spec)
	if err != nil {
		return err
	}
	printAxiomFlags(stdout, camp.AxiomInfo())
	testNames := map[string]bool{}
	for _, job := range camp.Jobs() {
		testNames[job.Test] = true
	}
	fmt.Fprintf(stdout, "campaign: %d jobs (%d tests)", len(camp.Jobs()), len(testNames))
	if checkpoint != "" {
		fmt.Fprintf(stdout, ", checkpoint %s", checkpoint)
	}
	fmt.Fprintln(stdout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	metrics := &campaign.Metrics{}
	done := 0
	var reports []string
	res, err := camp.Run(ctx, campaign.Options{
		CheckpointPath: checkpoint,
		Metrics:        metrics,
		OnJobDone: func(jr *campaign.JobResult) {
			done++
			for _, rep := range jr.TraceReports {
				if len(reports) < harness.DefaultTraceReports {
					reports = append(reports, rep)
				}
			}
			fmt.Fprintf(stderr, "\r%d/%d jobs", done+int(metrics.JobsRestored.Load()), len(camp.Jobs()))
		},
	})
	fmt.Fprintln(stderr)
	if res != nil {
		fmt.Fprint(stdout, res.Render())
	}
	if err != nil {
		if checkpoint != "" {
			return fmt.Errorf("%w (progress saved to %s; rerun to resume)", err, checkpoint)
		}
		return err
	}
	return summarize(stdout, spec.TraceVerifyEvery(), metrics.TracesVerified.Load(),
		metrics.TraceViolations.Load(), reports, len(res.Failures))
}

// summarize prints the witness-trace verification totals when
// verification is on, and returns the sweep's error: a trace violation
// is a conformance bug, not a statistic, so it fails the exit status
// just as a failed job does.
func summarize(w io.Writer, every int, verified, violations int64, reports []string, failures int) error {
	if every > 0 {
		fmt.Fprintf(w, "trace-verify: %d witnesses checked (stride %d), %d violation(s)\n",
			verified, every, violations)
		for _, rep := range reports {
			fmt.Fprintf(w, "\n%s\n", rep)
		}
		if violations > 0 {
			return fmt.Errorf("trace verification found %d violation(s)", violations)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d job(s) failed", failures)
	}
	return nil
}

// printAxiomFlags surfaces noteworthy static classifications before the
// sweep starts: rejected tests, unsatisfiable or forbidden targets (a
// forbidden target means the budget can only ever detect simulator
// conformance bugs), and tests beyond the exact-enumeration cutoff.
func printAxiomFlags(w io.Writer, info map[string]campaign.TestAxiom) {
	names := make([]string, 0, len(info))
	for name := range info {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ta := info[name]
		switch {
		case ta.Excluded:
			fmt.Fprintf(w, "axiom: %s: target statically rejected (%s); excluded from the sweep\n",
				name, axiomReason(ta))
		case ta.Unsatisfiable:
			fmt.Fprintf(w, "axiom: warn: %s: target is unsatisfiable — no execution can produce it\n", name)
		case ta.Class == "forbidden":
			fmt.Fprintf(w, "axiom: warn: %s: target is forbidden under SC and TSO; iterations can only detect conformance bugs\n", name)
		case ta.Note != "":
			fmt.Fprintf(w, "axiom: note: %s: %s\n", name, ta.Note)
		}
	}
}

func axiomReason(ta campaign.TestAxiom) string {
	if ta.Unsatisfiable {
		return "unsatisfiable"
	}
	return ta.Class
}

// runRemote submits the spec to a perple-serve instance as a dispatch
// campaign, polls until fleet workers finish it, and renders the merged
// results. The test corpus must be resolvable on the server (built-in
// suite, or a -dir path valid there).
func runRemote(baseURL string, spec campaign.Spec, stdout, stderr io.Writer) error {
	client := &http.Client{Timeout: 30 * time.Second}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := client.Post(baseURL+"/campaigns?mode=dispatch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var submitted struct {
		ID    string `json:"id"`
		Jobs  int    `json:"jobs"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}
	if submitted.Error != "" {
		return fmt.Errorf("server rejected campaign: %s", submitted.Error)
	}
	fmt.Fprintf(stdout, "campaign %s: %d jobs queued for dispatch at %s — point perple-worker at it\n",
		submitted.ID, submitted.Jobs, baseURL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var verified, violations int64
	var reports []string
	for {
		var status struct {
			State    string `json:"state"`
			Error    string `json:"error"`
			Dispatch *struct {
				Pending int `json:"pending"`
				Leased  int `json:"leased"`
				Done    int `json:"done"`
				Failed  int `json:"failed"`
			} `json:"dispatch"`
			Metrics struct {
				TracesVerified  int64 `json:"traces_verified"`
				TraceViolations int64 `json:"trace_violations"`
			} `json:"metrics"`
			TraceReports []string `json:"trace_reports"`
		}
		if err := getJSON(ctx, client, fmt.Sprintf("%s/campaigns/%s", baseURL, submitted.ID), &status); err != nil {
			return err
		}
		verified, violations = status.Metrics.TracesVerified, status.Metrics.TraceViolations
		reports = status.TraceReports
		if d := status.Dispatch; d != nil {
			fmt.Fprintf(stderr, "\r%d done, %d leased, %d pending", d.Done, d.Leased, d.Pending)
		}
		if status.State != "running" {
			fmt.Fprintln(stderr)
			if status.Error != "" {
				return fmt.Errorf("campaign %s %s: %s", submitted.ID, status.State, status.Error)
			}
			break
		}
		select {
		case <-ctx.Done():
			fmt.Fprintln(stderr)
			return ctx.Err()
		case <-time.After(time.Second):
		}
	}

	// The canonical document is the dispatch layer's determinism surface;
	// decode it back into an accumulator so the report matches the local
	// rendering.
	var doc struct {
		Groups   []*campaign.GroupResult `json:"groups"`
		Failures []campaign.JobFailure   `json:"failures"`
	}
	if err := getJSON(ctx, client, fmt.Sprintf("%s/campaigns/%s/results?format=canonical", baseURL, submitted.ID), &doc); err != nil {
		return err
	}
	res := campaign.NewResults()
	for _, g := range doc.Groups {
		res.Groups[campaign.GroupKey(g.Test, g.Tool, g.Preset)] = g
	}
	res.Failures = doc.Failures
	fmt.Fprint(stdout, res.Render())
	return summarize(stdout, spec.TraceVerifyEvery(), verified, violations, reports, len(res.Failures))
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
