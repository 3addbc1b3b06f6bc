package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perple/internal/litmus"
)

func smallSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{
		Tests:      []string{"sb", "mp", "lb"},
		Tools:      []string{"litmus7-user"},
		Iterations: 40,
		ShardSize:  10,
		Workers:    4,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// fakeResult fabricates a deterministic result for a job without
// touching the simulator (scheduler tests care about orchestration, not
// physics).
func fakeResult(job Job) *JobResult {
	return &JobResult{
		JobID: job.ID, Test: job.Test, Tool: job.Tool, Preset: job.Preset,
		Shard: job.Shard, N: job.N, Seed: job.Seed,
		Target: int64(job.ID), Ticks: int64(job.N) * 10,
	}
}

func TestSchedulerRunsAllJobs(t *testing.T) {
	camp, err := New(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics: metrics,
		runJob: func(_ context.Context, job Job, test *litmus.Test, _ Spec) (*JobResult, error) {
			if test == nil || test.Name != job.Test {
				return nil, fmt.Errorf("job %d handed wrong test %v", job.ID, test)
			}
			calls.Add(1)
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := int64(len(camp.Jobs()))
	if calls.Load() != wantJobs {
		t.Fatalf("ran %d jobs, want %d", calls.Load(), wantJobs)
	}
	if got := metrics.JobsCompleted.Load(); got != wantJobs {
		t.Fatalf("JobsCompleted = %d, want %d", got, wantJobs)
	}
	if got := metrics.QueueDepth.Load(); got != 0 {
		t.Fatalf("QueueDepth after run = %d", got)
	}
	if got := metrics.Iterations.Load(); got != 3*40 {
		t.Fatalf("Iterations = %d, want 120", got)
	}
	if _, _, n := res.Totals(); n != 3*40 {
		t.Fatalf("result iterations = %d", n)
	}
}

func TestSchedulerRetriesTransientFailures(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 3
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every job fails twice before succeeding. Attempts are counted per
	// job: a shared counter would let one job's failures land on another
	// under a different interleaving and overrun the budget.
	var mu sync.Mutex
	attempts := map[int]int{}
	var merged []*JobResult
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics:   metrics,
		OnJobDone: func(jr *JobResult) { merged = append(merged, jr) },
		runJob: func(_ context.Context, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			mu.Lock()
			attempts[job.ID]++
			n := attempts[job.ID]
			mu.Unlock()
			if n <= 2 {
				return nil, errors.New("transient")
			}
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures = %v", res.Failures)
	}
	jobs := len(camp.Jobs())
	if len(merged) != jobs {
		t.Fatalf("merged %d results, want %d", len(merged), jobs)
	}
	for _, jr := range merged {
		if jr.Retries != 2 {
			t.Fatalf("job %d recorded %d retries, want 2", jr.JobID, jr.Retries)
		}
	}
	if got := metrics.Retries.Load(); got != int64(2*jobs) {
		t.Fatalf("metrics.Retries = %d, want %d", got, 2*jobs)
	}
	for _, g := range res.Groups {
		if g.N == 0 {
			t.Fatalf("group %s/%s empty after retries", g.Test, g.Tool)
		}
	}
}

func TestSchedulerCollectsPermanentFailuresAndContinues(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 1
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &Metrics{}
	res, err := camp.Run(context.Background(), Options{
		Metrics: metrics,
		runJob: func(_ context.Context, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if job.Test == "mp" {
				return nil, errors.New("poisoned test")
			}
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 { // mp has 4 shards
		t.Fatalf("got %d failures, want 4: %v", len(res.Failures), res.Failures)
	}
	for _, f := range res.Failures {
		if f.Test != "mp" || f.Attempts != 2 {
			t.Fatalf("unexpected failure record %+v", f)
		}
	}
	if metrics.JobsFailed.Load() != 4 {
		t.Fatalf("JobsFailed = %d", metrics.JobsFailed.Load())
	}
	// The other tests' shards all completed.
	if _, _, n := res.Totals(); n != 2*40 {
		t.Fatalf("iterations = %d, want 80", n)
	}
}

func TestSchedulerRecoversPanics(t *testing.T) {
	spec := smallSpec(t)
	spec.MaxRetries = 0
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run(context.Background(), Options{
		runJob: func(_ context.Context, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			if job.Test == "lb" {
				panic("kaboom")
			}
			return fakeResult(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 {
		t.Fatalf("got %d failures, want 4", len(res.Failures))
	}
	for _, f := range res.Failures {
		if !strings.Contains(f.Err, "kaboom") || !strings.Contains(f.Err, "panicked") {
			t.Fatalf("failure lost the panic message: %+v", f)
		}
	}
}

func TestSchedulerCancelsPromptly(t *testing.T) {
	spec := smallSpec(t)
	spec.Iterations = 1000
	spec.ShardSize = 10 // 300 jobs
	spec.Workers = 2
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	begin := time.Now()
	done := make(chan struct{})
	var res *Results
	var runErr error
	metrics := &Metrics{}
	go func() {
		defer close(done)
		res, runErr = camp.Run(ctx, Options{
			Metrics: metrics,
			runJob: func(ctx context.Context, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
				if started.Add(1) == 3 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(5 * time.Millisecond):
					return fakeResult(job), nil
				}
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", runErr)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Far fewer than all 300 jobs ran, and no aborted job leaked into
	// the totals.
	if _, _, n := res.Totals(); n >= 3000 {
		t.Fatalf("cancelled run still accumulated %d iterations", n)
	}
	// The aborted jobs left the gauges: nothing is queued or in flight
	// once Run has returned.
	if q, f := metrics.QueueDepth.Load(), metrics.InFlight.Load(); q != 0 || f != 0 {
		t.Fatalf("after cancel: queue depth %d, in flight %d, want 0 and 0", q, f)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	done := map[int]*JobResult{}
	for _, job := range camp.Jobs()[:5] {
		done[job.ID] = fakeResult(job)
	}
	if err := SaveCheckpoint(path, spec, done); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 5 {
		t.Fatalf("restored %d jobs", len(restored))
	}
	for id, jr := range restored {
		if jr.JobID != id || jr.Target != int64(id) {
			t.Fatalf("restored job %d mangled: %+v", id, jr)
		}
	}

	// A different campaign must refuse the checkpoint.
	other := spec
	other.Seed = 777
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, other); err == nil {
		t.Fatal("checkpoint accepted by a different spec")
	}

	// Worker count and retry budget may change across a resume.
	tuned := spec
	tuned.Workers = 1
	tuned.MaxRetries = 9
	if err := tuned.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, tuned); err != nil {
		t.Fatalf("resume with different worker count refused: %v", err)
	}
}

func TestSchedulerChecksCheckpointJobIdentity(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jr := fakeResult(camp.Jobs()[0])
	jr.Seed++ // corrupt
	if err := camp.validateRestored(map[int]*JobResult{jr.JobID: jr}); err == nil {
		t.Fatal("corrupted checkpoint entry accepted")
	}
	if err := camp.validateRestored(map[int]*JobResult{9999: fakeResult(Job{ID: 9999})}); err == nil {
		t.Fatal("out-of-range job id accepted")
	}
}

// TestRunRejectsWALPath: a write-ahead log makes a ledger survive its
// process, which a local run's ledger never does; Run refuses the option
// instead of silently ignoring it.
func TestRunRejectsWALPath(t *testing.T) {
	camp, err := New(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, err = camp.Run(context.Background(), Options{
		CheckpointPath: filepath.Join(dir, "cp.json"),
		WALPath:        filepath.Join(dir, "cp.wal"),
		runJob: func(_ context.Context, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
			t.Errorf("job %d ran despite the rejected option", job.ID)
			return fakeResult(job), nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "WALPath") {
		t.Fatalf("Run with WALPath = %v, want an error naming the option", err)
	}
}

// TestCheckpointRefusesBareV1 pins the retirement of the pre-CRC
// snapshot format: a version-1 file (the Checkpoint fields at top level,
// no envelope) is refused rather than trusted without a checksum.
func TestCheckpointRefusesBareV1(t *testing.T) {
	spec := smallSpec(t)
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(Checkpoint{Version: 1, Spec: spec, Done: []*JobResult{fakeResult(camp.Jobs()[0])}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if done, err := LoadCheckpoint(path, spec); err == nil {
		t.Fatalf("bare v1 snapshot accepted with %d jobs", len(done))
	}
	if _, err := camp.Run(context.Background(), Options{CheckpointPath: path}); err == nil {
		t.Fatal("Run resumed from a bare v1 snapshot")
	}
}
