package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perple/internal/axiom"
	"perple/internal/litmus"
)

// Options tunes one Run invocation — everything here is about *how* the
// campaign executes; *what* it executes lives in the Spec.
type Options struct {
	// CheckpointPath, when non-empty, enables crash recovery: completed
	// job results are snapshotted there, and a pre-existing snapshot for
	// the same spec is restored instead of re-running its jobs.
	CheckpointPath string

	// CheckpointEvery batches snapshot writes to every n completed jobs;
	// 0 means every job.
	CheckpointEvery int

	// CheckpointFS is the filesystem under checkpoint I/O; nil selects
	// the real one. The chaos suite injects fault-ridden implementations
	// here.
	CheckpointFS CheckpointFS

	// WALPath, when non-empty, enables the durable dispatch plane
	// (dispatch mode only; Campaign.Run rejects it): every lease-ledger
	// transition is appended to a write-ahead log there, and a restarted
	// dispatcher replays snapshot + log to reconstruct the exact ledger.
	// Requires CheckpointPath, since the log compacts into the
	// checkpoint.
	WALPath string

	// WALSyncEvery batches WAL fsyncs to every n appended records
	// (group commit); 0 or 1 fsyncs every record.
	WALSyncEvery int

	// CompactEvery folds the WAL into a fresh checkpoint every n
	// terminal job transitions (merges + dead letters); 0 selects the
	// default of 64.
	CompactEvery int

	// Metrics receives the run's counters; nil allocates a private set.
	Metrics *Metrics

	// OnJobDone, when set, observes every merged job result. Calls are
	// serialized (they run under the dispatcher's lock), so the callback
	// may mutate unsynchronized state.
	OnJobDone func(*JobResult)

	// OnJobFailed, when set, observes every job whose retry budget ran
	// out — the dead-letter stream the server surfaces on the status
	// endpoint. Serialized like OnJobDone.
	OnJobFailed func(JobFailure)

	// runJob overrides job execution; tests inject failures and panics
	// here. nil selects the real harness-backed runner.
	runJob func(ctx context.Context, job Job, test *litmus.Test, spec Spec) (*JobResult, error)
}

// Campaign is an expanded spec: the resolved corpus plus the
// deterministic job list. One Campaign value supports one Run at a time.
type Campaign struct {
	Spec  Spec
	tests map[string]*litmus.Test
	jobs  []Job
	axiom map[string]TestAxiom // nil when Spec.Axiom is off
}

// TestAxiom is the static classification internal/axiom assigned to one
// corpus test's declared target at campaign construction.
type TestAxiom struct {
	// Class is "sc-allowed", "tso-only", or "forbidden"; empty when the
	// test exceeded the checker's exact-enumeration cutoff (see Note).
	Class         string `json:"class,omitempty"`
	Unsatisfiable bool   `json:"unsatisfiable,omitempty"`
	Vacuous       bool   `json:"vacuous,omitempty"`
	// Note explains why an unclassified test could not be analyzed.
	Note string `json:"note,omitempty"`
	// Excluded marks tests the reject policy dropped from job expansion.
	Excluded bool `json:"excluded,omitempty"`
}

// New validates the spec, resolves its corpus, classifies every test's
// target per the spec's axiom policy, and expands the job list.
func New(spec Spec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tests, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*litmus.Test, len(tests))
	for _, t := range tests {
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("campaign: corpus defines test %q twice", t.Name)
		}
		byName[t.Name] = t
	}
	axioms, tests, err := classifyCorpus(spec, tests)
	if err != nil {
		return nil, err
	}
	// Keep the test map in step with the filtered corpus: it also feeds
	// the dispatch-mode wire corpus, and workers should never even see a
	// rejected test.
	for name, ta := range axioms {
		if ta.Excluded {
			delete(byName, name)
		}
	}
	return &Campaign{Spec: spec, tests: byName, jobs: spec.Jobs(tests), axiom: axioms}, nil
}

// classifyCorpus runs the static axiomatic checker over the corpus per
// the spec's axiom policy, returning the per-test classification (nil
// under AxiomOff) and the test list job expansion should use.
func classifyCorpus(spec Spec, tests []*litmus.Test) (map[string]TestAxiom, []*litmus.Test, error) {
	if spec.Axiom == AxiomOff {
		return nil, tests, nil
	}
	info := make(map[string]TestAxiom, len(tests))
	kept := tests
	if spec.Axiom == AxiomReject {
		kept = make([]*litmus.Test, 0, len(tests))
	}
	for _, t := range tests {
		var ta TestAxiom
		rep, err := axiom.Analyze(t)
		switch {
		case err == nil:
			ta.Class = rep.Target.Class.String()
			ta.Unsatisfiable = rep.Target.Unsatisfiable
			ta.Vacuous = rep.Target.Vacuous
		default:
			if _, tooLarge := err.(*axiom.TooLargeError); !tooLarge {
				return nil, nil, fmt.Errorf("campaign: classifying %s: %w", t.Name, err)
			}
			ta.Note = err.Error()
		}
		if spec.Axiom == AxiomReject {
			if ta.Class == axiom.Forbidden.String() || ta.Unsatisfiable {
				ta.Excluded = true
			} else {
				kept = append(kept, t)
			}
		}
		info[t.Name] = ta
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("campaign: axiom policy %q rejected every corpus test", spec.Axiom)
	}
	return info, kept, nil
}

// Jobs returns the campaign's deterministic job list.
func (c *Campaign) Jobs() []Job { return append([]Job(nil), c.jobs...) }

// AxiomInfo returns the per-test static classification recorded at
// construction, keyed by test name; nil when the axiom policy is off.
func (c *Campaign) AxiomInfo() map[string]TestAxiom {
	if c.axiom == nil {
		return nil
	}
	out := make(map[string]TestAxiom, len(c.axiom))
	for name, ta := range c.axiom {
		out[name] = ta
	}
	return out
}

// localLeaseTTL is the lease duration a local run's in-process
// executors hold. An executor cannot be lost without the ledger that
// granted its lease — both live and die with this process — so a local
// lease never needs to expire.
const localLeaseTTL = 100 * 365 * 24 * time.Hour

// Run executes the campaign in-process: a Dispatcher owns the job
// ledger, restore, retry budget, merge and checkpoint cadence exactly
// as for a fleet, and Spec.Workers goroutines act as its executors,
// each leasing one job at a time, running it with panic recovery, and
// reporting a result or a failure. Cancelling ctx aborts in-flight jobs
// promptly (their partial work is discarded — only whole jobs ever
// reach the totals or the checkpoint, which is what keeps resumption
// total-preserving). Run returns the totals accumulated so far together
// with ctx's error when cancelled.
func (c *Campaign) Run(ctx context.Context, opts Options) (*Results, error) {
	if opts.WALPath != "" {
		return nil, fmt.Errorf("campaign: WALPath applies to dispatch mode only (a local run's ledger dies with its process)")
	}
	if opts.runJob == nil {
		opts.runJob = runJob
	}
	d, err := NewDispatcher(c, localLeaseTTL, opts)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for w := 0; w < c.Spec.Workers; w++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			c.execute(ctx, d, worker, opts.runJob)
		}(fmt.Sprintf("local-%d", w))
	}
	wg.Wait()
	if ctx.Err() != nil {
		d.Cancel()
	}
	res, err, _ := d.Outcome()
	if err != nil {
		return res, err
	}
	return res, ctx.Err()
}

// execute is one in-process executor: lease a job, run it, report the
// outcome, until a lease comes back without a grant (everything left is
// done or held by another executor) or ctx is cancelled. A job aborted
// by cancellation is reported as neither a result nor a failure; its
// lease dies with the cancelled run.
func (c *Campaign) execute(ctx context.Context, d *Dispatcher, worker string,
	run func(context.Context, Job, *litmus.Test, Spec) (*JobResult, error)) {
	for ctx.Err() == nil {
		lease := d.Lease(LeaseRequest{Worker: worker, Max: 1})
		if len(lease.Grants) == 0 {
			return
		}
		g := lease.Grants[0]
		jr, err := runRecovered(ctx, g.Job, c.tests[g.Job.Test], c.Spec, run)
		req := CompleteRequest{Worker: worker}
		switch {
		case err == nil:
			req.Results = []WorkerResult{{LeaseID: g.LeaseID, Result: jr}}
		case ctx.Err() != nil:
			return
		default:
			req.Failures = []WorkerFailure{{LeaseID: g.LeaseID, JobID: g.Job.ID, Err: err.Error()}}
		}
		d.Complete(req)
	}
}

// finalSaveRetries bounds how many times the closing snapshot write is
// retried before the run surfaces the error.
const finalSaveRetries = 3

// saveCheckpointRetry makes the closing snapshot write resilient to
// transient disk faults: up to finalSaveRetries attempts, counting each
// failure, returning the last error only if none succeeded. ledger is
// nil without a WAL.
func saveCheckpointRetry(fsys CheckpointFS, path string, spec Spec, done map[int]*JobResult, ledger *LedgerSnapshot, metrics *Metrics) error {
	var err error
	for attempt := 0; attempt < finalSaveRetries; attempt++ {
		if err = SaveCheckpointLedgerFS(fsys, path, spec, done, ledger); err == nil {
			return nil
		}
		metrics.CheckpointErrors.Add(1)
	}
	return err
}

// runRecovered converts a panicking job into an ordinary error so one
// poisoned shard cannot take down the whole campaign.
func runRecovered(ctx context.Context, job Job, test *litmus.Test, spec Spec,
	run func(context.Context, Job, *litmus.Test, Spec) (*JobResult, error)) (jr *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			jr, err = nil, fmt.Errorf("campaign: job %d (%s/%s/%s shard %d) panicked: %v",
				job.ID, job.Test, job.Tool, job.Preset, job.Shard, r)
		}
	}()
	return run(ctx, job, test, spec)
}

// validateRestored cross-checks checkpointed results against the
// expanded job list; a mismatch means the checkpoint belongs to a
// different job expansion despite the spec check, and resuming would
// corrupt the totals.
func (c *Campaign) validateRestored(done map[int]*JobResult) error {
	for id, jr := range done {
		if id < 0 || id >= len(c.jobs) {
			return fmt.Errorf("campaign: checkpoint references unknown job %d", id)
		}
		job := c.jobs[id]
		if job.Test != jr.Test || job.Tool != jr.Tool || job.Preset != jr.Preset ||
			job.Shard != jr.Shard || job.N != jr.N || job.Seed != jr.Seed {
			return fmt.Errorf("campaign: checkpoint job %d does not match the spec's job expansion", id)
		}
	}
	return nil
}
