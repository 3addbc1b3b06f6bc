// Command perple-worker is a fleet member for distributed campaigns: it
// pulls shard leases from a perple-serve dispatch campaign over HTTP,
// executes them with the same harness-backed runner a local run uses,
// and streams batched results back in the PWB1 binary codec. Because
// shard seeds are identity-derived and result merging is
// order-invariant, a fleet of workers produces byte-identical final
// results to a local -campaign run of the same spec — workers can join,
// crash, and be replaced mid-run without affecting the outcome.
//
// Lifecycle: the first SIGINT/SIGTERM drains gracefully (in-flight jobs
// finish and upload, unstarted leases are released back to the queue);
// a second signal aborts immediately, leaving held leases to expire and
// requeue server-side.
//
// Usage:
//
//	perple-serve -addr :8077 &
//	curl -X POST 'localhost:8077/campaigns?mode=dispatch' -d @spec.json   # → {"id":"c1",...}
//	perple-worker -server http://localhost:8077 -campaign c1
//	perple-worker -server http://host:8077 -campaign c1 -parallel 8 -name rack2-a
//
// Exit status: 0 after the campaign is drained or the worker is
// stopped, 1 a worker error, 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perple/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-worker", flag.ContinueOnError)
	fl.SetOutput(stderr)
	server := fl.String("server", "http://localhost:8077", "perple-serve base URL")
	campaignID := fl.String("campaign", "", "dispatch campaign id to work on (required)")
	name := fl.String("name", "", "worker name for lease accounting (default: hostname-pid)")
	parallel := fl.Int("parallel", 0, "concurrent jobs (default: GOMAXPROCS)")
	leaseBatch := fl.Int("lease-batch", 0, "jobs pulled per lease call (default: -parallel)")
	heartbeat := fl.Duration("heartbeat", 0, "lease heartbeat period (default: a third of the server's lease TTL)")
	retries := fl.Int("retries", 5, "attempts per HTTP call before giving up")
	backoff := fl.Duration("backoff", 200*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	breakerFailures := fl.Int("breaker-failures", campaign.DefaultBreakerThreshold, "consecutive HTTP failures that open the circuit breaker")
	breakerCooldown := fl.Duration("breaker-cooldown", campaign.DefaultBreakerCooldown, "how long an open circuit holds requests off")
	recoveryWindow := fl.Duration("recovery-window", 0, "keep retrying transport errors and 5xx this long even past -retries, to ride out a server restart (0 disables)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *campaignID == "" {
		fmt.Fprintln(stderr, "perple-worker: -campaign is required")
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	w := campaign.NewWorker(campaign.WorkerOptions{
		BaseURL:          *server,
		Campaign:         *campaignID,
		Name:             *name,
		Parallel:         *parallel,
		LeaseBatch:       *leaseBatch,
		HeartbeatEvery:   *heartbeat,
		MaxAttempts:      *retries,
		BackoffBase:      *backoff,
		BreakerThreshold: *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		RecoveryWindow:   *recoveryWindow,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		logger.Printf("draining: finishing in-flight jobs (signal again to abort)")
		w.Drain()
		<-sigs
		logger.Printf("aborting: held leases will expire and requeue")
		cancel()
	}()

	start := time.Now()
	err := w.Run(ctx)
	logger.Printf("worker done: %d jobs completed, %d failed, %s elapsed",
		w.JobsCompleted.Load(), w.JobsFailed.Load(), time.Since(start).Round(time.Millisecond))
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "perple-worker: %v\n", err)
		return 1
	}
	return 0
}
