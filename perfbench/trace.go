package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perple/internal/campaign"
)

// span is one timed call into a layer, recorded from this package's own
// files. Times are nanoseconds since the tracer started; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once at the end.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	rep   int
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// nextRep starts a new traced repetition; spans recorded from now on
// carry its number.
func (t *tracer) nextRep() {
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed records fn as a span and returns fn's error.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time in seconds
// (duration minus the part of it covered by child spans) over the spans
// of repetition rep (rep < 0 selects every repetition).
func (t *tracer) selfTimes(rep int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if rep >= 0 && s.Rep != rep {
			continue
		}
		out[s.Name] += float64(s.dur()-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64 = 0, p.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, p.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// durations returns the span durations (seconds) named name in rep.
func (t *tracer) durations(name string, rep int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Rep == rep {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

// adoptFS parents every filesystem span of rep to the most recently
// started HTTP handler span whose interval contains it. The
// filesystem wrappers see no request context, but the dispatcher writes
// its WAL and checkpoints synchronously inside the request that caused
// them, so containment recovers the causing request.
func (t *tracer) adoptFS(rep int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var handlers []span
	for _, s := range t.spans {
		if s.Rep == rep && strings.HasPrefix(s.Name, "campaign.http.") {
			handlers = append(handlers, s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Rep != rep || s.Parent != 0 || !isFSSpan(s.Name) {
			continue
		}
		for j := len(handlers) - 1; j >= 0; j-- {
			if h := handlers[j]; h.Start <= s.Start && s.End <= h.End {
				s.Parent = h.ID
				break
			}
		}
	}
}

func isFSSpan(name string) bool {
	return strings.HasPrefix(name, "campaign.wal.") || strings.HasPrefix(name, "campaign.checkpoint.")
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanHeader carries the client span ID to the server so the handler
// span can name its cause.
const spanHeader = "X-Perfbench-Span"

// transport is a worker's http.RoundTripper: it counts requests, errors,
// non-2xx responses and body bytes, adds each exchange's wait (request
// start to response body close) to waitNs, and signals corpusDone once
// the first corpus download is fully read. With a tracer it also
// records each exchange as a campaign.worker.http span.
type transport struct {
	base *http.Transport
	tr   *tracer

	requests, errors, non2xx atomic.Int64
	sent, recv, waitNs       atomic.Int64

	corpusOnce sync.Once
	corpusDone chan struct{}
	corpusAt   atomic.Int64 // UnixNano when the corpus body closed
}

func newTransport(tr *tracer) *transport {
	return &transport{
		base:       &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second},
		tr:         tr,
		corpusDone: make(chan struct{}),
	}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	id := 0
	if t.tr != nil {
		id = t.tr.begin("campaign.worker.http", 0)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.sent.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.errors.Add(1)
		t.finish(start, id)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		t.non2xx.Add(1)
	}
	corpus := req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/corpus")
	resp.Body = &countedBody{ReadCloser: resp.Body, t: t, start: start, id: id, corpus: corpus}
	return resp, nil
}

func (t *transport) finish(start time.Time, id int) {
	t.waitNs.Add(time.Since(start).Nanoseconds())
	if id != 0 {
		t.tr.end(id)
	}
}

type countedBody struct {
	io.ReadCloser
	t      *transport
	start  time.Time
	id     int
	corpus bool
	once   sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.recv.Add(int64(n))
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.finish(b.start, b.id)
		if b.corpus {
			b.t.corpusOnce.Do(func() {
				b.t.corpusAt.Store(time.Now().UnixNano())
				close(b.t.corpusDone)
			})
		}
	})
	return err
}

// traceHandler wraps the server's handler: every request becomes a span
// named after its route, parented to the client span that sent it.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		id := tr.begin(routeName(req), parent)
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

// routeName maps a request to its campaign.http.<route> span name.
func routeName(req *http.Request) string {
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	switch {
	case len(parts) == 3 && parts[0] == "campaigns":
		return "campaign.http." + parts[2]
	case len(parts) == 2 && parts[0] == "campaigns":
		return "campaign.http.status"
	case len(parts) == 1 && parts[0] == "campaigns" && req.Method == http.MethodPost:
		return "campaign.http.submit"
	default:
		return "campaign.http." + parts[0]
	}
}

// fsStats counts the durable plane's writes as the filesystem sees them.
type fsStats struct {
	walRecords, walBytes, walSyncs atomic.Int64
	walWriteNs, walSyncNs          atomic.Int64
	ckptWrites, ckptBytes          atomic.Int64
	ckptWriteNs                    atomic.Int64
}

// tracedFS is the server's CheckpointFS (and WALFS): the real
// filesystem, with every write and fsync timed. Appends to an
// OpenAppend handle are WAL records (the WAL writes one record per
// Write); temp files created in the WAL directory are compacted WAL
// segments and count as WAL writes; every other temp file is a
// checkpoint snapshot.
type tracedFS struct {
	tr     *tracer
	walDir string
	st     *fsStats
}

var _ campaign.WALFS = (*tracedFS)(nil)

func (f *tracedFS) CreateTemp(dir, pattern string) (campaign.CheckpointFile, error) {
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if dir == f.walDir {
		return &tracedFile{File: file, fs: f, write: "campaign.wal.write", sync: "campaign.wal.write"}, nil
	}
	f.st.ckptWrites.Add(1)
	return &tracedFile{File: file, fs: f, write: "campaign.checkpoint.write", sync: "campaign.checkpoint.write"}, nil
}

func (f *tracedFS) OpenAppend(name string) (campaign.WALFile, error) {
	file, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, write: "campaign.wal.write", sync: "campaign.wal.sync", records: true}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (f *tracedFS) Remove(name string) error             { return os.Remove(name) }
func (f *tracedFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// SyncDir fsyncs the directory after a rename; like the production
// filesystem it swallows errors (some filesystems refuse directory
// fsync), and its time counts toward the write that caused it.
func (f *tracedFS) SyncDir(dir string) error {
	name := "campaign.checkpoint.write"
	if dir == f.walDir {
		name = "campaign.wal.write"
	}
	start := time.Now()
	id := f.tr.begin(name, 0)
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	f.tr.end(id)
	f.account(name, time.Since(start), 0)
	return nil
}

// account adds one timed operation to the counters.
func (f *tracedFS) account(name string, d time.Duration, n int) {
	switch name {
	case "campaign.wal.write":
		f.st.walWriteNs.Add(d.Nanoseconds())
		f.st.walBytes.Add(int64(n))
	case "campaign.wal.sync":
		f.st.walSyncNs.Add(d.Nanoseconds())
		f.st.walSyncs.Add(1)
	case "campaign.checkpoint.write":
		f.st.ckptWriteNs.Add(d.Nanoseconds())
		f.st.ckptBytes.Add(int64(n))
	}
}

type tracedFile struct {
	*os.File
	fs          *tracedFS
	write, sync string
	records     bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	id := f.fs.tr.begin(f.write, 0)
	n, err := f.File.Write(p)
	f.fs.tr.end(id)
	f.fs.account(f.write, time.Since(start), n)
	if f.records && err == nil {
		f.fs.st.walRecords.Add(1)
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	id := f.fs.tr.begin(f.sync, 0)
	err := f.File.Sync()
	f.fs.tr.end(id)
	f.fs.account(f.sync, time.Since(start), 0)
	return err
}
