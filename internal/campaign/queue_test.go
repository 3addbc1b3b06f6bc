package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// newTestQueue builds a two-job ledger with a controllable clock.
func newTestQueue(maxRetries int) (*leaseQueue, *time.Time) {
	now := time.Unix(0, 0)
	q := newLeaseQueue([]Job{{ID: 0}, {ID: 1}}, time.Minute, maxRetries, func() time.Time { return now })
	return q, &now
}

// TestLeaseQueueHeartbeatAfterExpiry pins the expiry fence's division of
// labor: heartbeat itself does not check the clock — a heartbeat that
// races past the TTL but lands before the sweep revives the lease (the
// holder is demonstrably alive, and nothing was re-granted yet), while
// one landing after the sweep is rejected because the nonce is stale.
// Dispatchers sweep before heartbeating, so "expired" is decided at a
// single point instead of two racing ones.
func TestLeaseQueueHeartbeatAfterExpiry(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease("w1", 1)[0]

	*now = now.Add(2 * time.Minute) // past the TTL, before any sweep
	if !q.heartbeat("w1", LeaseRef{JobID: 0, LeaseID: g.leaseID}) {
		t.Fatal("pre-sweep heartbeat from the (live) holder rejected")
	}
	if e := q.entries[0]; !e.expires.After(*now) {
		t.Fatal("heartbeat did not re-extend the lease")
	}

	// Let it expire for real this time: sweep first, heartbeat second.
	*now = now.Add(2 * time.Minute)
	requeued, _ := q.sweep()
	if len(requeued) != 1 {
		t.Fatalf("sweep requeued %d, want 1", len(requeued))
	}
	if q.heartbeat("w1", LeaseRef{JobID: 0, LeaseID: g.leaseID}) {
		t.Fatal("post-sweep heartbeat revived a requeued job")
	}
	if e := q.entries[0]; e.state != statePending {
		t.Fatalf("job state = %v, want pending", e.state)
	}
}

// TestLeaseQueueDuplicateComplete: the same lease completing twice — a
// retried upload whose first copy did land — is fenced the second time,
// never double-completed.
func TestLeaseQueueDuplicateComplete(t *testing.T) {
	q, _ := newTestQueue(5)
	g := q.lease("w1", 1)[0]
	ref := LeaseRef{JobID: 0, LeaseID: g.leaseID}

	if accepted, fenced := q.complete(ref); !accepted || fenced {
		t.Fatalf("first complete = (%v, %v), want accepted", accepted, fenced)
	}
	if accepted, fenced := q.complete(ref); accepted || !fenced {
		t.Fatalf("duplicate complete = (%v, %v), want fenced", accepted, fenced)
	}
	if _, _, done, failed := q.counts(); done != 1 || failed != 0 {
		t.Fatalf("ledger counts done=%d failed=%d after duplicate complete", done, failed)
	}
}

// TestLeaseQueueFailFromNonHolder: an execution-failure report is only
// honored from the job's current holder under its current nonce — a
// superseded holder (lease expired and re-granted) or an impostor name
// must not charge the replacement's retry budget.
func TestLeaseQueueFailFromNonHolder(t *testing.T) {
	q, now := newTestQueue(5)
	first := q.lease("w1", 1)[0]
	firstNonce := first.leaseID

	*now = now.Add(2 * time.Minute)
	if requeued, _ := q.sweep(); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	second := q.lease("w2", 1)[0]
	if second.job.ID != 0 || second.leaseID == firstNonce {
		t.Fatalf("re-grant = job %d nonce %d (was %d)", second.job.ID, second.leaseID, firstNonce)
	}
	attempts := second.attempts

	// Superseded holder reports a failure under its dead nonce.
	if r, f := q.fail("w1", LeaseRef{JobID: 0, LeaseID: firstNonce}, "boom"); r || f {
		t.Fatalf("superseded fail = (%v, %v), want ignored", r, f)
	}
	// Impostor: current nonce, wrong worker name.
	if r, f := q.fail("w1", LeaseRef{JobID: 0, LeaseID: second.leaseID}, "boom"); r || f {
		t.Fatalf("impostor fail = (%v, %v), want ignored", r, f)
	}
	if e := q.entries[0]; e.state != stateLeased || e.worker != "w2" || e.attempts != attempts {
		t.Fatalf("non-holder reports disturbed the ledger: %+v", e)
	}
	// The real holder's report still counts.
	if r, f := q.fail("w2", LeaseRef{JobID: 0, LeaseID: second.leaseID}, "boom"); !r || f {
		t.Fatalf("holder fail = (%v, %v), want requeued", r, f)
	}
}

// TestLeaseQueueReleaseRacingSweep: a graceful drain whose release
// arrives after the sweep already requeued the lease must be a no-op —
// in particular it must not insert the job into the pending set twice,
// which would let two workers hold "the" lease simultaneously.
func TestLeaseQueueReleaseRacingSweep(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease("w1", 1)[0]

	*now = now.Add(2 * time.Minute)
	if requeued, _ := q.sweep(); len(requeued) != 1 {
		t.Fatal("lease did not expire")
	}
	if q.release("w1", LeaseRef{JobID: 0, LeaseID: g.leaseID}) {
		t.Fatal("release honored after the sweep already requeued the job")
	}
	seen := 0
	for _, id := range q.pending {
		if id == 0 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("job 0 appears %d times in the pending set, want exactly 1: %v", seen, q.pending)
	}
	// And the job is grantable exactly once.
	if g := q.lease("w3", 10); len(g) != 2 {
		t.Fatalf("re-lease granted %d jobs, want 2 (each job exactly once)", len(g))
	}
}

// TestLeaseQueueReleaseAfterReGrant: same race, one step later — the
// job was not only requeued but already re-granted to another worker;
// the stale release must not yank it from under the new holder.
func TestLeaseQueueReleaseAfterReGrant(t *testing.T) {
	q, now := newTestQueue(5)
	g := q.lease("w1", 1)[0]
	*now = now.Add(2 * time.Minute)
	q.sweep()
	second := q.lease("w2", 1)[0]

	if q.release("w1", LeaseRef{JobID: 0, LeaseID: g.leaseID}) {
		t.Fatal("stale release honored against a re-granted lease")
	}
	if e := q.entries[0]; e.state != stateLeased || e.worker != "w2" || e.leaseID != second.leaseID {
		t.Fatalf("stale release disturbed the new holder: %+v", e)
	}
}

// TestLeaseQueueSweepFloorMatchesFullScan drives two identical ledgers
// through the same random grants, heartbeats, completions, failures,
// releases, WAL-style replays, restores from rows, and fake-clock moves
// (backwards included). One sweeps with its expiry floor; the other has
// its floor forced into the past before every sweep, so it always scans
// every job. Both must requeue and dead-letter the same jobs in the same
// sweeps and end every step with the same ledger.
func TestLeaseQueueSweepFloorMatchesFullScan(t *testing.T) {
	const jobs = 24
	var list []Job
	for i := 0; i < jobs; i++ {
		list = append(list, Job{ID: i})
	}
	ids := func(es []*queueEntry) []int {
		out := []int{}
		for _, e := range es {
			out = append(out, e.job.ID)
		}
		return out
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		fast := newLeaseQueue(list, time.Minute, 2, clock)
		full := newLeaseQueue(list, time.Minute, 2, clock)
		workers := []string{"w0", "w1", "w2"}
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			job := rng.Intn(jobs)
			worker := workers[rng.Intn(len(workers))]
			at := now.Add(time.Duration(rng.Intn(240)-60) * time.Second)
			for _, q := range []*leaseQueue{fast, full} {
				e := q.entries[job]
				ref := LeaseRef{JobID: job, LeaseID: e.leaseID}
				switch op {
				case 0, 1:
					q.lease(worker, 1+job%3)
				case 2:
					q.heartbeat(e.worker, ref)
				case 3:
					q.complete(ref)
				case 4:
					q.fail(e.worker, ref, "injected")
				case 5:
					q.release(e.worker, ref)
				case 6:
					q.applyGrant(job, q.nextLease+1, worker, at)
				case 7:
					q.applyExtend(job, e.leaseID, at)
				}
			}
			switch op {
			case 8:
				now = now.Add(time.Duration(rng.Intn(90)-20) * time.Second)
			case 9:
				rows := fast.ledgerRows()
				fast = newLeaseQueueFromRows(list, rows, time.Minute, 2, fast.nextLease, clock)
				full = newLeaseQueueFromRows(list, full.ledgerRows(), time.Minute, 2, full.nextLease, clock)
			}
			full.expiryFloor = time.Unix(1, 0)
			r1, f1 := fast.sweep()
			r2, f2 := full.sweep()
			if !reflect.DeepEqual(ids(r1), ids(r2)) || !reflect.DeepEqual(ids(f1), ids(f2)) {
				t.Fatalf("seed %d step %d: floored sweep requeued %v failed %v, full scan requeued %v failed %v",
					seed, step, ids(r1), ids(f1), ids(r2), ids(f2))
			}
			if a, b := fmt.Sprint(fast.ledgerRows(), fast.pending), fmt.Sprint(full.ledgerRows(), full.pending); a != b {
				t.Fatalf("seed %d step %d: ledgers diverged:\nfloored %s\nfull    %s", seed, step, a, b)
			}
		}
	}
}

// TestLeaseQueueSweepSkipsWhileFloorAhead pins the point of the floor:
// with every live lease far from expiry, a sweep returns without
// visiting the ledger, however many jobs it holds.
func TestLeaseQueueSweepSkipsWhileFloorAhead(t *testing.T) {
	q, now := newTestQueue(1)
	q.lease("w1", 2)
	floor := q.expiryFloor
	if floor.IsZero() {
		t.Fatal("granting leases left no expiry floor")
	}
	// Corrupt a row the scan would notice: if the sweep visited it, the
	// overdue lease would requeue.
	q.entries[1].expires = now.Add(-time.Hour)
	if r, f := q.sweep(); len(r)+len(f) != 0 {
		t.Fatalf("sweep scanned the ledger while the clock (%v) was before the floor (%v)", *now, floor)
	}
	*now = floor
	if r, _ := q.sweep(); len(r) != 2 {
		t.Fatalf("sweep at the floor requeued %d leases, want 2", len(r))
	}
	if !q.expiryFloor.IsZero() {
		t.Fatalf("no lease is live, yet the floor is %v", q.expiryFloor)
	}
}
