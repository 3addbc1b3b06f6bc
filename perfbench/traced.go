package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// traced reports the per-layer metrics. It times set-up layer by layer,
// alternates untraced and traced repetitions for half the measuring
// time (the traced ones run the HTTP, transport and filesystem
// wrappers), then replays the last traced repetition's jobs, merge and
// uploads through the layers' public functions. All spans are written
// to <workdir>/trace-<workload>-seed<n>.json once at the end.
func (b *bench) traced() (*result, error) {
	name := b.cfg.workload.name
	tr := newTracer(fmt.Sprintf("%s/seed=%d", name, b.cfg.seed))
	tooLarge, err := b.traceSetup(tr)
	if err != nil {
		return nil, err
	}
	warm, untraced, traced, err := b.measure(tr, b.cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	last := traced[len(traced)-1]
	runRep := tr.rep
	tr.nextRep()
	replayRep := tr.rep
	rs, err := b.replay(context.Background(), tr, last)
	if err != nil {
		return nil, err
	}
	extra := append([]error(nil), rs.mismatches...)
	if err := replayMerge(tr, last); err != nil {
		extra = append(extra, err)
	}
	if b.cfg.workload.fleet {
		if err := replayWire(tr, last); err != nil {
			extra = append(extra, err)
		}
		tr.adoptFS(runRep)
	}

	out := &result{Metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
	reps := append(append([]*rep{warm}, untraced...), traced...)
	for _, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}

	// Set-up layers (one pass over the corpus; campaign.New is a median).
	setupSelf := tr.selfTimes(0)
	set("litmus.parse_s", setupSelf["litmus.parse"], "s")
	set("axiom.analyze_s", setupSelf["axiom.analyze"], "s")
	set("axiom.too_large", float64(tooLarge), "count")
	set("campaign.new_s", median(tr.durations("campaign.new", 0)), "s")

	// Compute layers, from the replay.
	self := tr.selfTimes(replayRep)
	simS := self["sim.synced"] + self["sim.perpetual"]
	set("sim.synced_s", self["sim.synced"], "s")
	set("sim.perpetual_s", self["sim.perpetual"], "s")
	set("sim.ticks", float64(rs.ticks), "count")
	set("sim.ns_per_tick", ratio(simS*1e9, float64(rs.ticks)), "ns")
	set("harness.observe_s", self["harness.litmus7"]-self["sim.synced"], "s")
	set("harness.hist_keys", float64(rs.histKeys), "count")
	set("trace.verify_s", self["trace.verify"], "s")
	set("trace.witnesses", float64(rs.witnesses), "count")
	set("trace.violations", float64(rs.violations), "count")
	set("core.convert_s", self["core.convert"], "s")
	set("core.count_heur_s", self["core.count_heur"], "s")
	set("core.count_exh_s", self["core.count_exh"], "s")
	set("core.frames", float64(rs.frames), "count")
	set("core.factorized_ratio", ratio(float64(rs.factorized), float64(rs.exhCounts)), "ratio")
	set("campaign.merge_s", self["campaign.merge"], "s")
	set("campaign.jobs", float64(len(last.results)), "count")
	set("harness.wire.encode_s", self["harness.wire.encode"], "s")
	set("harness.wire.decode_s", self["harness.wire.decode"], "s")

	untracedWall := median(walls(untraced))
	executorS := float64(b.workers) * untracedWall
	jobS := 0.0
	for _, d := range tr.durations("campaign.job", replayRep) {
		jobS += d
	}
	replayed := jobS + self["campaign.merge"] + self["harness.wire.encode"] + self["harness.wire.decode"]
	set("campaign.replay_coverage", ratio(replayed, executorS), "ratio")

	// Dispatch, HTTP and durability layers, from the last traced fleet
	// repetition; a local campaign bypasses them all.
	b.fleetMetrics(set, tr, last, runRep)

	// Runtime and end-to-end cross-cuts.
	var allocs, gcs, uRate, tRate []float64
	for _, r := range untraced {
		allocs = append(allocs, ratio(float64(r.mallocs), float64(r.iters)))
		gcs = append(gcs, float64(r.gcs))
		uRate = append(uRate, float64(r.iters)/r.wall.Seconds())
	}
	for _, r := range traced {
		tRate = append(tRate, float64(r.iters)/r.wall.Seconds())
	}
	set("runtime.allocs_per_iter", median(allocs), "count")
	set("runtime.gc_count", median(gcs), "count")
	set("bench.trace_overhead_ratio", ratio(median(uRate)-median(tRate), median(uRate)), "ratio")
	set("bench.wall_iters_per_s", median(uRate), "1/s")
	one, all := calibs(untraced)
	set("bench.calib_serial_s", median(one), "s")
	set("bench.calib_parallel_s", median(all), "s")
	set("fail_ratio", ratio(float64(out.Failed), float64(out.Attempted)), "ratio")

	b.logShares(tr, replayRep, runRep, executorS)
	out.Correct = b.check(reps, extra...) == nil
	if rs.violations != 0 {
		out.Correct = false
		fmt.Fprintf(b.log, "perfbench: check failed: replay found %d witness-trace violations\n", rs.violations)
	}
	path := filepath.Join(b.cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", name, b.cfg.seed))
	if err := tr.write(path, b.cfg.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: spans written to %s\n", path)
	return out, nil
}

// fleetMetrics reports the HTTP, dispatch, wire-byte and durable-write
// metrics of traced repetition runRep (zero for local workloads) and
// cross-checks the filesystem wrapper against the server's /metrics.
func (b *bench) fleetMetrics(set func(string, float64, string), tr *tracer, last *rep, runRep int) {
	st := last.fleet
	if st == nil {
		st = &fleetStats{fs: &fsStats{}}
	}
	ms := func(name string, p float64) float64 { return 1e3 * percentile(tr.durations(name, runRep), p) }
	set("campaign.http.lease_ms.p50", ms("campaign.http.lease", 0.5), "ms")
	set("campaign.http.lease_ms.p99", ms("campaign.http.lease", 0.99), "ms")
	set("campaign.http.complete_ms.p50", ms("campaign.http.complete", 0.5), "ms")
	set("campaign.http.complete_ms.p99", ms("campaign.http.complete", 0.99), "ms")
	var requests, waitNs, sent, recv int64
	for i, t := range st.transports {
		requests += t.requests.Load()
		if i == 0 {
			continue // the benchmark's own control client
		}
		waitNs += t.waitNs.Load()
		sent += t.sent.Load()
		recv += t.recv.Load()
	}
	set("campaign.http.requests", float64(requests), "count")
	set("campaign.worker.http_wait_s", float64(waitNs)/1e9, "s")
	set("campaign.worker.wait_ratio", ratio(float64(waitNs)/1e9, float64(b.workers)*last.wall.Seconds()), "ratio")
	set("harness.wire.bytes_sent", float64(sent), "bytes")
	set("harness.wire.bytes_recv", float64(recv), "bytes")

	m := st.metrics
	set("campaign.leases_granted", float64(m.LeasesGranted), "count")
	set("campaign.lease_requeues", float64(m.LeaseRequeues), "count")
	set("campaign.results_fenced", float64(m.ResultsFenced), "count")
	set("campaign.duplicate_uploads", float64(m.DuplicateUploads), "count")
	set("campaign.lease_useful_ratio", ratio(float64(m.JobsCompleted), float64(m.LeasesGranted)), "ratio")
	set("campaign.upload_batch_mean", ratio(float64(m.WireBatch.Sum), float64(m.WireBatch.Count)), "count")

	fs := st.fs
	records, syncs := fs.walRecords.Load(), fs.walSyncs.Load()
	syncS := float64(fs.walSyncNs.Load()) / 1e9
	set("campaign.wal.records", float64(records), "count")
	set("campaign.wal.bytes", float64(fs.walBytes.Load()), "bytes")
	set("campaign.wal.write_s", float64(fs.walWriteNs.Load())/1e9, "s")
	set("campaign.wal.sync_s", syncS, "s")
	set("campaign.wal.syncs", float64(syncs), "count")
	set("campaign.wal.records_per_sync", ratio(float64(records), float64(syncs)), "ratio")
	set("campaign.checkpoint.writes", float64(fs.ckptWrites.Load()), "count")
	set("campaign.checkpoint.bytes", float64(fs.ckptBytes.Load()), "bytes")
	set("campaign.checkpoint.write_s", float64(fs.ckptWriteNs.Load())/1e9, "s")

	// The wrapper and the server count the same appends and fsyncs from
	// opposite sides of the WALFile interface; report any disagreement.
	recDelta := float64(records - m.WALAppends)
	syncDelta := syncS - float64(m.WALFsyncNs)/1e9
	set("campaign.wal.records_delta", recDelta, "count")
	set("campaign.wal.sync_s_delta", syncDelta, "s")
	if recDelta != 0 || math.Abs(syncDelta) > 0.05*syncS+1e-3 {
		fmt.Fprintf(b.log, "perfbench: WAL cross-check disagrees: wrapper %d records / %.6fs fsync, /metrics %d appends / %.6fs\n",
			records, syncS, m.WALAppends, float64(m.WALFsyncNs)/1e9)
	}
}

// logShares prints each layer's busy time as a share of executor time
// (executors × median untraced run wall), largest first, so a reader
// can check the workload design from the log.
func (b *bench) logShares(tr *tracer, replayRep, runRep int, executorS float64) {
	self := tr.selfTimes(replayRep)
	self["harness.observe"] = self["harness.litmus7"] - self["sim.synced"]
	delete(self, "harness.litmus7")
	delete(self, "replay.probe")
	delete(self, "campaign.job")
	if b.cfg.workload.fleet {
		// Handler spans are inclusive of the WAL and checkpoint writes
		// they cause (those spans are their children), so self times sum
		// without double counting; the worker-side HTTP span's self time
		// is transport overhead.
		for k, v := range tr.selfTimes(runRep) {
			if strings.HasPrefix(k, "campaign.") {
				self[k] += v
			}
		}
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var parts []string
	for _, k := range names {
		if self[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*self[k]/executorS))
		}
	}
	fmt.Fprintf(b.log, "perfbench: layer shares of %d executors x %.3fs: %s\n", b.workers, executorS/float64(b.workers), strings.Join(parts, ", "))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
