package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// checkpointVersion guards the snapshot format; version 2 wraps the
// snapshot in a CRC-carrying envelope so disk corruption is detected at
// load instead of silently mis-merging. It is the only readable
// version: a bare version-1 snapshot is refused like any undecodable
// file.
const checkpointVersion = 2

// checkpointPrevSuffix names the rotated last-good snapshot kept beside
// the active one. Every successful save moves the previous active file
// here, so a snapshot that later turns out corrupt (bit rot, torn
// write that slipped past fsync) has a verified predecessor to fall
// back to — a resume then merely re-runs the handful of jobs completed
// since, reaching identical totals.
const checkpointPrevSuffix = ".prev"

// ErrCheckpointCorrupt marks a snapshot whose bytes cannot be trusted:
// undecodable JSON, a CRC mismatch, or an unreadable payload. Loaders
// fall back to the rotated last-good snapshot when they see it.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Checkpoint is the on-disk campaign snapshot: the (defaulted) spec that
// generated the job list plus every completed job's full result. Because
// job results are deterministic functions of their shard seed, and
// campaign aggregation is order-invariant, restoring Done and running
// only the remaining jobs reproduces the uninterrupted campaign's totals
// exactly.
type Checkpoint struct {
	Version int          `json:"version"`
	Spec    Spec         `json:"spec"`
	Done    []*JobResult `json:"done"`
	// Ledger, when present, is the dispatch lease ledger at save time —
	// the compaction target the write-ahead log folds into. Absent for
	// local runs and pre-WAL snapshots; a dispatcher restoring a snapshot
	// without one falls back to re-leasing everything not done.
	Ledger *LedgerSnapshot `json:"ledger,omitempty"`
}

// LedgerSnapshot is the lease ledger's full state inside a checkpoint:
// every queue row, the grant-nonce high-water mark, and the nonce each
// merged upload carried (what keeps duplicate-vs-fenced classification
// exact across a restart). Rows cover jobs that entered the queue this
// incarnation; jobs restored as done before the queue was built have no
// row and need none.
type LedgerSnapshot struct {
	NextLease int64         `json:"next_lease"`
	Cancelled bool          `json:"cancelled,omitempty"`
	Rows      []LedgerRow   `json:"rows"`
	Merged    []MergedLease `json:"merged,omitempty"`
}

// LedgerRow mirrors one queueEntry. State uses the leaseState values
// (0 pending, 1 leased, 2 done); Expires is Unix nanoseconds.
type LedgerRow struct {
	JobID    int    `json:"job_id"`
	State    int    `json:"state"`
	LeaseID  int64  `json:"lease_id,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Expires  int64  `json:"expires,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
	FailErr  string `json:"fail_err,omitempty"`
}

// MergedLease records which lease nonce a merged job's upload carried.
type MergedLease struct {
	JobID   int   `json:"job_id"`
	LeaseID int64 `json:"lease_id"`
}

// checkpointEnvelope is the version-2 file format: the compact-encoded
// Checkpoint plus its IEEE CRC-32. The CRC is computed over the
// compacted payload bytes so re-indentation (MarshalIndent at save,
// whatever whitespace survives on disk at load) cannot perturb it.
type checkpointEnvelope struct {
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// SaveCheckpoint writes the snapshot durably and atomically on the real
// filesystem; see SaveCheckpointFS.
func SaveCheckpoint(path string, spec Spec, done map[int]*JobResult) error {
	return SaveCheckpointFS(osCheckpointFS{}, path, spec, done)
}

// SaveCheckpointFS writes the snapshot through fsys: temp file in the
// destination directory, fsync, rename over the active path, directory
// sync. The previous active snapshot is rotated to path+".prev" first,
// so there is always at most one unverified file — a crash at any point
// leaves either the old snapshot, the new one, or (between the two
// renames) only the rotated last-good copy, which LoadCheckpointFS
// recovers. Done is stored sorted by job ID for stable diffs.
func SaveCheckpointFS(fsys CheckpointFS, path string, spec Spec, done map[int]*JobResult) error {
	return SaveCheckpointLedgerFS(fsys, path, spec, done, nil)
}

// SaveCheckpointLedgerFS is SaveCheckpointFS carrying the dispatch
// lease ledger — the WAL compaction path: the snapshot absorbs the
// log's state so the log can be truncated.
func SaveCheckpointLedgerFS(fsys CheckpointFS, path string, spec Spec, done map[int]*JobResult, ledger *LedgerSnapshot) error {
	cp := Checkpoint{Version: checkpointVersion, Spec: spec, Ledger: ledger}
	cp.Done = make([]*JobResult, 0, len(done))
	for _, jr := range done {
		cp.Done = append(cp.Done, jr)
	}
	sort.Slice(cp.Done, func(i, j int) bool { return cp.Done[i].JobID < cp.Done[j].JobID })

	payload, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}
	env := checkpointEnvelope{Version: checkpointVersion, CRC32: crc32.ChecksumIEEE(payload), Payload: payload}
	data, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}

	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// fsync before rename: without it, a crash shortly after the rename
	// can leave the new name pointing at a zero-length or torn file on
	// journaled filesystems that reorder data behind metadata.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("campaign: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// Rotate the current snapshot to last-good before installing the new
	// one. ENOENT just means this is the first save.
	if err := fsys.Rename(path, path+checkpointPrevSuffix); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("campaign: rotating checkpoint: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaign: committing checkpoint: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("campaign: syncing checkpoint directory: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a snapshot from the real filesystem; see
// LoadCheckpointFS. Recovery from the rotated snapshot is transparent
// here; callers that want to know use the FS variant.
func LoadCheckpoint(path string, spec Spec) (map[int]*JobResult, error) {
	done, _, err := LoadCheckpointFS(osCheckpointFS{}, path, spec)
	return done, err
}

// LoadCheckpointFS reads and verifies a snapshot through fsys. When the
// active snapshot is corrupt (CRC mismatch, undecodable bytes) — or
// missing while the rotated last-good one exists, the signature of a
// crash between the two save renames — it falls back to path+".prev"
// and reports recovered=true. A corrupt active snapshot with no usable
// fallback is an error: silently restarting from scratch would hide
// data loss from the operator.
func LoadCheckpointFS(fsys CheckpointFS, path string, spec Spec) (done map[int]*JobResult, recovered bool, err error) {
	done, _, recovered, err = LoadCheckpointLedgerFS(fsys, path, spec)
	return done, recovered, err
}

// LoadCheckpointLedgerFS is LoadCheckpointFS that also returns the
// dispatch lease ledger stored in the snapshot (nil for local-run and
// pre-WAL snapshots).
func LoadCheckpointLedgerFS(fsys CheckpointFS, path string, spec Spec) (done map[int]*JobResult, ledger *LedgerSnapshot, recovered bool, err error) {
	done, ledger, err = loadCheckpointFile(fsys, path, spec)
	if err == nil {
		return done, ledger, false, nil
	}
	if !errors.Is(err, ErrCheckpointCorrupt) && !os.IsNotExist(err) {
		// Spec mismatch, version from the future, duplicate jobs: the file
		// is intact but wrong, and the rotated copy was written by the same
		// campaign — falling back cannot help.
		return nil, nil, false, err
	}
	prev, prevLedger, prevErr := loadCheckpointFile(fsys, path+checkpointPrevSuffix, spec)
	if prevErr == nil {
		return prev, prevLedger, true, nil
	}
	// No usable fallback: surface the original failure (for a missing
	// active file that is simply "fresh campaign", which callers detect
	// with os.IsNotExist).
	return nil, nil, false, err
}

// loadCheckpointFile reads one snapshot file and verifies its
// envelope's CRC.
func loadCheckpointFile(fsys CheckpointFS, path string, spec Spec) (map[int]*JobResult, *LedgerSnapshot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var cp Checkpoint
	var env checkpointEnvelope
	switch {
	case json.Unmarshal(data, &env) == nil && env.Version == checkpointVersion && len(env.Payload) > 0:
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Payload); err != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s payload: %v: %w", path, err, ErrCheckpointCorrupt)
		}
		if got := crc32.ChecksumIEEE(compact.Bytes()); got != env.CRC32 {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s CRC mismatch (%08x on disk, %08x computed): %w",
				path, env.CRC32, got, ErrCheckpointCorrupt)
		}
		if err := json.Unmarshal(env.Payload, &cp); err != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s payload: %v: %w", path, err, ErrCheckpointCorrupt)
		}
	default:
		if json.Unmarshal(data, &env) == nil && env.Version > checkpointVersion {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s has version %d, want ≤ %d", path, env.Version, checkpointVersion)
		}
		return nil, nil, fmt.Errorf("campaign: checkpoint %s is not a decodable version-%d snapshot: %w", path, checkpointVersion, ErrCheckpointCorrupt)
	}
	if err := cp.Spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s spec: %w", path, err)
	}
	if !reflect.DeepEqual(normalizeSpec(cp.Spec), normalizeSpec(spec)) {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s was written by a different spec", path)
	}
	done := make(map[int]*JobResult, len(cp.Done))
	for _, jr := range cp.Done {
		if jr == nil {
			continue
		}
		if _, dup := done[jr.JobID]; dup {
			return nil, nil, fmt.Errorf("campaign: checkpoint %s lists job %d twice", path, jr.JobID)
		}
		done[jr.JobID] = jr
	}
	return done, cp.Ledger, nil
}

// normalizeSpec strips fields that do not influence the job list or its
// results, so a resume may legitimately change them (worker count,
// retry budget, name).
func normalizeSpec(s Spec) Spec {
	s.Name = ""
	s.Workers = 0
	s.MaxRetries = 0
	return s
}
