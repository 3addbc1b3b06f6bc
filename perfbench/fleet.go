package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"perple/internal/campaign"
)

// fleetStats is what one fleet repetition saw beyond its results.
type fleetStats struct {
	transports []*transport
	fs         *fsStats          // nil unless traced
	metrics    campaign.Snapshot // the server's /metrics scheduler block
}

// walSyncEvery is the fleet server's WAL group-commit size. With
// perple-serve's default of an fsync per record, a repetition's time
// tracked the host disk's fsync latency rather than the program: on a
// shared disk, ten seeds spread by more than their median.
const walSyncEvery = 16

// fleetRep is one durable fleet campaign: an in-process Server on
// loopback HTTP with checkpoints and a WAL on real disk (fsync every
// walSyncEvery WAL records, the WAL folded into a fresh checkpoint every
// 64 finished jobs), and one worker per executor with Parallel 1.
// Set-up is the spec submission plus every worker's corpus download; the
// run phase ends when the dispatcher has finished.
func (b *bench) fleetRep(ctx context.Context, tr *tracer) (*rep, error) {
	dir, err := os.MkdirTemp(b.scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv := campaign.NewServer()
	srv.CheckpointDir = filepath.Join(dir, "checkpoints")
	srv.WALDir = filepath.Join(dir, "wal")
	srv.WALSyncEvery = walSyncEvery
	for _, d := range []string{srv.CheckpointDir, srv.WALDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, err
		}
	}
	st := &fleetStats{}
	handler := srv.Handler()
	if tr != nil {
		st.fs = &fsStats{}
		srv.CheckpointFS = &tracedFS{tr: tr, walDir: srv.WALDir, st: st.fs}
		handler = traceHandler(tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		srv.CancelAll()
		_ = hs.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()

	ctl := newTransport(nil)
	defer ctl.base.CloseIdleConnections()
	st.transports = append(st.transports, ctl)
	client := &http.Client{Transport: ctl, Timeout: time.Minute}

	r := &rep{fleet: st}
	var onJobDone func(*campaign.JobResult)
	if tr != nil {
		r.results = map[int]*campaign.JobResult{}
		onJobDone = (&capture{out: r.results}).add
	}
	specJSON, err := json.Marshal(b.spec)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := doJSON(client, http.MethodPost, base+"/campaigns?mode=dispatch", specJSON, &sub); err != nil {
		return nil, fmt.Errorf("submitting campaign: %w", err)
	}

	// Cancelling ctx stops the workers on every early return; the
	// deferred wait makes sure none outlives the repetition.
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	errs := make([]error, b.workers)
	workers := make([]*campaign.Worker, b.workers)
	for i := range workers {
		t := newTransport(tr)
		defer t.base.CloseIdleConnections()
		st.transports = append(st.transports, t)
		workers[i] = campaign.NewWorker(campaign.WorkerOptions{
			BaseURL:   base,
			Campaign:  sub.ID,
			Name:      fmt.Sprintf("bench-w%d", i),
			Parallel:  1,
			Client:    &http.Client{Transport: t, Timeout: time.Minute},
			OnJobDone: onJobDone,
		})
	}
	// A worker returns only once the dispatcher reports the campaign
	// finished, so the first return marks the end of the run phase. The
	// others may be asleep in an idle lease poll; draining them cuts the
	// sleep short.
	var end time.Time
	var first sync.Once
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *campaign.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
			first.Do(func() {
				end = time.Now()
				for _, w := range workers {
					w.Drain()
				}
			})
		}(i, w)
	}
	var ready time.Time
	for _, t := range st.transports[1:] {
		select {
		case <-t.corpusDone:
			if at := time.Unix(0, t.corpusAt.Load()); at.After(ready) {
				ready = at
			}
		case <-time.After(time.Minute):
			return nil, errors.New("a worker never fetched the corpus")
		}
	}
	r.setup = ready.Sub(t0)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("fleet worker: %w", err)
	}
	var status struct {
		State       string                `json:"state"`
		Error       string                `json:"error"`
		Metrics     campaign.Snapshot     `json:"metrics"`
		DeadLetters []campaign.JobFailure `json:"dead_letters"`
	}
	for {
		if err := doJSON(client, http.MethodGet, base+"/campaigns/"+sub.ID, nil, &status); err != nil {
			return nil, err
		}
		if status.State != campaign.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.wall = end.Sub(ready)
	runtime.ReadMemStats(&ms1)
	r.mallocs, r.gcs = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
	if status.State != campaign.StateDone {
		return nil, fmt.Errorf("campaign ended %s: %s", status.State, status.Error)
	}

	canon, err := getBytes(client, base+"/campaigns/"+sub.ID+"/results?format=canonical")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Totals   map[string]int64      `json:"totals"`
		Failures []campaign.JobFailure `json:"failures"`
	}
	if err := json.Unmarshal(canon, &doc); err != nil {
		return nil, fmt.Errorf("decoding canonical results: %w", err)
	}
	r.digest = digest(canon)
	r.iters, r.found = doc.Totals["iterations"], doc.Totals["target"]
	r.deadLetters = len(status.DeadLetters) + len(doc.Failures)
	r.violations = status.Metrics.TraceViolations

	var m struct {
		Scheduler campaign.Snapshot `json:"scheduler"`
	}
	if err := doJSON(client, http.MethodGet, base+"/metrics", nil, &m); err != nil {
		return nil, err
	}
	st.metrics = m.Scheduler

	s := status.Metrics
	r.attempted = s.LeasesGranted
	r.failed = s.LeaseRequeues + s.JobsFailed + s.Retries
	for _, t := range st.transports {
		r.attempted += t.requests.Load()
		r.failed += t.errors.Load() + t.non2xx.Load()
	}
	return r, nil
}

// doJSON sends body (nil for none) and decodes a 2xx JSON response.
func doJSON(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getBytes(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// capture collects per-job results from concurrent callbacks.
type capture struct {
	mu  sync.Mutex
	out map[int]*campaign.JobResult
}

func (c *capture) add(jr *campaign.JobResult) {
	c.mu.Lock()
	c.out[jr.JobID] = jr
	c.mu.Unlock()
}
