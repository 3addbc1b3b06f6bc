package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"perple/internal/campaign"
)

// bench holds one invocation's resolved inputs.
type bench struct {
	cfg     config
	scratch string
	log     io.Writer
	dir     string        // corpus directory
	spec    campaign.Spec // unvalidated template; campaign.New validates a copy
	budget  int64         // iterations a complete campaign merges
	workers int           // executors: local pool size or fleet worker count
}

// rep is one repetition of a workload: set-up, then the run phase.
type rep struct {
	setup time.Duration // campaign.New (local) or submit + corpus fetches (fleet)
	wall  time.Duration // run phase
	iters int64         // merged iterations
	found int64         // merged target-outcome occurrences
	// digest is the SHA-256 of the canonical result JSON; repetitions
	// keep only the digest so a long run's memory stays flat.
	digest string

	attempted, failed int64
	violations        int64
	deadLetters       int

	results map[int]*campaign.JobResult // captured per-job results (traced reps)
	fleet   *fleetStats                 // fleet reps only
	peakRSS float64                     // sampled peak resident set, MiB (untraced reps)
	mallocs uint64                      // heap allocations during the run phase
	gcs     uint32                      // GC cycles during the run phase
	// calib is the mean of the calibrations just before and just after
	// this repetition (untraced reps).
	calib calib
}

func (b *bench) prepare() error {
	dir, err := b.cfg.corpusDir(b.scratch)
	if err != nil {
		return err
	}
	b.dir = dir
	b.spec = b.cfg.spec(dir)
	if b.budget, err = budget(dir, b.spec); err != nil {
		return err
	}
	b.workers = runtime.GOMAXPROCS(0)
	return nil
}

// rep runs one repetition; tr is nil for an untraced run.
func (b *bench) rep(tr *tracer) (*rep, error) {
	ctx := context.Background()
	if b.cfg.workload.fleet {
		return b.fleetRep(ctx, tr)
	}
	return b.localRep(ctx, tr)
}

// localSetups is how many times a local repetition times campaign.New.
const localSetups = 5

// localRep is one Campaign.Run of the spec.
func (b *bench) localRep(ctx context.Context, tr *tracer) (*rep, error) {
	// campaign.New takes milliseconds, so each repetition times it
	// several times and keeps the median.
	var camp *campaign.Campaign
	setups := make([]float64, localSetups)
	for i := range setups {
		t0 := time.Now()
		c, err := campaign.New(b.spec)
		if err != nil {
			return nil, err
		}
		setups[i], camp = time.Since(t0).Seconds(), c
	}
	r := &rep{setup: time.Duration(median(setups) * 1e9)}
	m := &campaign.Metrics{}
	opts := campaign.Options{Metrics: m}
	if tr != nil {
		r.results = map[int]*campaign.JobResult{}
		opts.OnJobDone = func(jr *campaign.JobResult) { r.results[jr.JobID] = jr }
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	res, err := camp.Run(ctx, opts)
	r.wall = time.Since(t1)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	r.mallocs, r.gcs = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
	snap := m.Snapshot()
	r.attempted = snap.JobsCompleted + snap.JobsFailed + snap.Retries
	r.failed = snap.JobsFailed + snap.Retries
	r.violations = snap.TraceViolations
	r.deadLetters = len(res.Failures)
	if err := r.setResults(res); err != nil {
		return nil, err
	}
	return r, nil
}

// setResults records the merged totals and the canonical digest.
func (r *rep) setResults(res *campaign.Results) error {
	r.found, _, r.iters = res.Totals()
	canon, err := res.CanonicalJSON()
	if err != nil {
		return err
	}
	r.digest = digest(canon)
	return nil
}

// reference computes the canonical result of a local Campaign.Run of the
// spec, outside any timed region, for the fleet byte-identity check.
func (b *bench) reference() ([]byte, error) {
	camp, err := campaign.New(b.spec)
	if err != nil {
		return nil, err
	}
	res, err := camp.Run(context.Background(), campaign.Options{})
	if err != nil {
		return nil, err
	}
	return res.CanonicalJSON()
}

// measure runs an unmeasured warm-up repetition, then repetitions until
// the measuring time is spent (at least three), alternating untraced
// and traced ones when tr is set. A calibration run precedes the first
// untraced repetition and follows each one.
func (b *bench) measure(tr *tracer, seconds time.Duration) (warm *rep, untraced, traced []*rep, err error) {
	if warm, err = b.rep(nil); err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	before := calibrateHost(b.workers)
	for n := 0; n < 3 || time.Since(start) < seconds; n++ {
		rss := startRSS()
		r, err := b.rep(nil)
		peak := rss.stopMB()
		if err != nil {
			return nil, nil, nil, err
		}
		after := calibrateHost(b.workers)
		r.peakRSS, r.calib, before = peak, before.mean(after), after
		untraced = append(untraced, r)
		if tr == nil {
			continue
		}
		tr.nextRep()
		if r, err = b.rep(tr); err != nil {
			return nil, nil, nil, err
		}
		if len(traced) > 0 {
			traced[len(traced)-1].results = nil // only the last traced repetition is replayed
		}
		traced = append(traced, r)
	}
	return warm, untraced, traced, nil
}

// untraced reports the end-to-end metrics: per-repetition rates and
// set-up times, each scaled to the nominal host speed by the calibration
// runs around its repetition (see calib.go), and peak resident sets,
// each the median over the repetitions.
func (b *bench) untraced() (*result, error) {
	warm, reps, _, err := b.measure(nil, b.cfg.seconds)
	if err != nil {
		return nil, err
	}
	out := &result{Metrics: map[string]metric{}}
	var iters, found, setup, rss []float64
	for _, r := range reps {
		// > 1 on a host slower than nominal.
		serial, parallel := r.calib.one/calibRefS, r.calib.runPhase()/calibRefS
		iters = append(iters, parallel*float64(r.iters)/r.wall.Seconds())
		found = append(found, parallel*float64(r.found)/r.wall.Seconds())
		setup = append(setup, r.setup.Seconds()/serial)
		rss = append(rss, r.peakRSS)
	}
	for _, r := range append(reps, warm) {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	out.Metrics["iters_per_s"] = metric{median(iters), "1/s"}
	out.Metrics["detections_per_s"] = metric{median(found), "1/s"}
	out.Metrics["setup_s"] = metric{median(setup), "s"}
	out.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	out.Metrics["success_ratio"] = metric{1 - float64(out.Failed)/float64(max(out.Attempted, 1)), "ratio"}
	out.Correct = b.check(append(reps, warm)) == nil
	w := walls(reps)
	one, all := calibs(reps)
	fmt.Fprintf(b.log, "perfbench: %s seed=%d: %d repetitions, run phase min %.3fs median %.3fs max %.3fs; calibration median %.4fs serial, %.4fs parallel (nominal %.4fs)\n",
		b.cfg.workload.name, b.cfg.seed, len(reps), percentile(w, 0), median(w), percentile(w, 1), median(one), median(all), calibRefS)
	return out, nil
}

// walls returns the repetitions' run-phase times in seconds.
func walls(reps []*rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall.Seconds()
	}
	return out
}

// calibs returns the serial and parallel calibration times around the
// repetitions, in seconds.
func calibs(reps []*rep) (one, all []float64) {
	for _, r := range reps {
		one, all = append(one, r.calib.one), append(all, r.calib.all)
	}
	return one, all
}

// rssSampler tracks the peak resident set of the process over one
// repetition by reading /proc/self/statm every rssEvery. A sampled
// per-repetition peak, rather than the process-lifetime VmHWM, keeps a
// single transient spike from setting the whole run's figure.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // resident pages; written by the sampler, read after done
}

const rssEvery = 2 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			return
		}
		defer f.Close()
		buf := make([]byte, 128)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if n, err := f.ReadAt(buf, 0); n > 0 && (err == nil || err == io.EOF) {
				if fields := strings.Fields(string(buf[:n])); len(fields) > 1 {
					if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil && pages > s.peak {
						s.peak = pages
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the peak in MiB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak*int64(os.Getpagesize())) / (1 << 20)
}

func digest(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
