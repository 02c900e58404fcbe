package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pathprof/internal/profile"
)

// Store persists snapshots at a fixed path with crash-safe writes and
// a one-deep history:
//
//	<path>       the current snapshot
//	<path>.prev  the previous good snapshot (fallback)
//	<path>.tmp   in-flight write, renamed into place on success
//
// Save never overwrites the current snapshot in place — a torn write
// can only lose the .tmp file — and Load falls back to .prev when the
// primary is corrupt, so one bad write never strands the consumer
// without a profile.
type Store struct {
	path string
}

// NewStore returns a store rooted at path.
func NewStore(path string) *Store { return &Store{path: path} }

// Path returns the primary snapshot path.
func (st *Store) Path() string { return st.path }

// PrevPath returns the fallback snapshot path.
func (st *Store) PrevPath() string { return st.path + ".prev" }

// TmpPath returns the in-flight write path.
func (st *Store) TmpPath() string { return st.path + ".tmp" }

// Save atomically writes the snapshot: encode, write and fsync .tmp,
// rotate the existing snapshot to .prev, rename .tmp into place, then
// fsync the directory so both renames are themselves durable. A crash
// at any point leaves a state Recover can roll back to the last
// acknowledged snapshot.
func (st *Store) Save(s *profile.Snapshot) error {
	return st.SaveBytes(Encode(s))
}

// SaveBytes is Save for pre-encoded snapshot bytes (the service
// ingest path already holds them). The bytes are not validated here;
// callers own that.
func (st *Store) SaveBytes(data []byte) error {
	dir := filepath.Dir(st.path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("snapshot: save: %w", err)
		}
	}
	if err := writeFileSync(st.TmpPath(), data); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if _, err := os.Stat(st.path); err == nil {
		if err := os.Rename(st.path, st.PrevPath()); err != nil {
			return fmt.Errorf("snapshot: rotate: %w", err)
		}
	}
	if err := os.Rename(st.TmpPath(), st.path); err != nil {
		return fmt.Errorf("snapshot: commit: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: commit: %w", err)
	}
	return nil
}

// writeFileSync writes data and fsyncs before closing, so a success
// means the bytes are on stable storage — the precondition for the
// renames that follow being a durable commit.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir fsyncs a directory so renames and file creations within it
// survive a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RecoveryReport says what Recover found and did.
type RecoveryReport struct {
	// RemovedTmp: a leftover in-flight write was discarded. Its
	// contents — torn or complete — were never acknowledged to any
	// writer, so discarding preserves acked-implies-durable exactly.
	RemovedTmp bool
	// RestoredPrev: the primary was missing with a .prev present (a
	// crash between Save's two renames — the torn rotation), and the
	// previous snapshot was renamed back into place.
	RestoredPrev bool
}

// Recover rolls the store back to its last acknowledged state after a
// crash. Save's commit is two renames; a crash can leave (a) a stale
// .tmp from an interrupted write, or (b) the torn rotation: primary
// renamed to .prev but .tmp never renamed in. Both are repaired by
// rolling back — the in-flight snapshot was never acknowledged, so
// the last acked state is .prev (case b) or the untouched primary
// (case a). Recover is idempotent and a no-op on a clean store.
func (st *Store) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	dir := filepath.Dir(st.path)
	if _, err := os.Stat(st.TmpPath()); err == nil {
		if err := os.Remove(st.TmpPath()); err != nil {
			return rep, fmt.Errorf("snapshot: recover: %w", err)
		}
		rep.RemovedTmp = true
	}
	_, primaryErr := os.Stat(st.path)
	if os.IsNotExist(primaryErr) {
		if _, err := os.Stat(st.PrevPath()); err == nil {
			if err := os.Rename(st.PrevPath(), st.path); err != nil {
				return rep, fmt.Errorf("snapshot: recover: %w", err)
			}
			rep.RestoredPrev = true
		}
	}
	if rep.RemovedTmp || rep.RestoredPrev {
		if err := SyncDir(dir); err != nil {
			return rep, fmt.Errorf("snapshot: recover: %w", err)
		}
	}
	return rep, nil
}

// Load reads and verifies the current snapshot. When the primary file
// is missing, unreadable, or corrupt, it falls back to .prev;
// fromFallback reports that the returned snapshot came from the
// fallback. When both copies are bad the error describes the primary
// failure (with the fallback failure attached via errors.Join).
func (st *Store) Load() (snap *profile.Snapshot, fromFallback bool, err error) {
	primaryErr := st.loadFile(st.path, &snap)
	if primaryErr == nil {
		return snap, false, nil
	}
	fallbackErr := st.loadFile(st.PrevPath(), &snap)
	if fallbackErr == nil {
		return snap, true, nil
	}
	return nil, false, errors.Join(primaryErr, fallbackErr)
}

// loadFile decodes one snapshot file into *out, tagging corruption
// errors with the file path.
func (st *Store) loadFile(path string, out **profile.Snapshot) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return err
	}
	*out = s
	return nil
}
