// Package serve is the multi-tenant profile service: many clients
// concurrently POST PPSNAP snapshots to per-program tenants, the
// server validates and folds them into per-tenant aggregates with the
// same deterministic merge the collector uses for shards, and serves
// merged snapshots, NET hot-path predictions, and instrumentation
// plans back out.
//
// Robustness is the organizing principle, not a feature flag:
//
//   - Acked implies durable. An ingest is acknowledged only after the
//     log record of the batch that folded it (its seqs, keys and
//     upload bytes) is fsynced in the Store; a crash at any moment
//     loses nothing a client was told was accepted, and a restart
//     recovers the aggregate, the seqs and the idempotency keys, so a
//     retry of a logged but unacked snapshot dedupes instead of
//     folding twice. Checkpoints, which bound the log, run after the
//     acks.
//   - Bounded everything. The ingest queue, request bodies, commit
//     batches, and per-request waits all have hard limits; overload
//     turns into 429/503 + Retry-After, never unbounded memory.
//   - Whole-request quarantine. A corrupt or oversized snapshot is
//     rejected and accounted; it never contaminates an aggregate
//     (mirroring replication's whole-shard quarantine).
//   - Graceful degradation. Under pressure the server sheds read and
//     plan traffic before ingest, and group commit stretches the
//     merge/append cadence so one fsync amortizes over a deeper queue.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"pathprof/internal/faultinject"
	"pathprof/internal/profile"
	"pathprof/internal/snapshot"
)

// Store abstracts where tenants' durable state lives: per tenant, a
// checkpoint (the aggregate as of some seq, with the commit log up to
// it) and a log of the batches committed since (see wal.go for both
// encodings). Append's contract is the service's foundation: a nil
// error means the record is recoverable after a crash, so the server
// may acknowledge the batch it names. Implementations must tolerate
// torn writes from previous incarnations (recover on open, not on
// write).
type Store interface {
	// Append durably appends one log record to tenant's log. The store
	// must not keep rec.
	Append(tenant string, rec []byte) error
	// Save durably replaces tenant's checkpoint with ckpt, which must
	// cover every record the log holds, and then empties the log. A
	// bare PPSNAP aggregate is a checkpoint at seq 0.
	Save(tenant string, ckpt []byte) error
	// Load returns the acked aggregate, the checkpoint's with the log
	// replayed onto it, as PPSNAP bytes; or os.ErrNotExist (possibly
	// wrapped) when the tenant has no durable state.
	Load(tenant string) ([]byte, error)
	// Log returns the tenant's commit log in seq order (empty when the
	// tenant has none).
	Log(tenant string) ([]LogEntry, error)
	// Tenants lists tenants with durable state, sorted.
	Tenants() ([]string, error)
}

// snapshotLoader is implemented by stores whose Load already decodes
// the bytes to replay them; they hand back that decode with the
// bytes, so a tenant's first touch decodes its aggregate once.
type snapshotLoader interface {
	LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error)
}

// loadAggregate loads and decodes a tenant's aggregate. Errors wrap
// os.ErrNotExist only when the store has no aggregate for the tenant.
func loadAggregate(st Store, tenant string) ([]byte, *profile.Snapshot, error) {
	if l, ok := st.(snapshotLoader); ok {
		return l.LoadSnapshot(tenant)
	}
	data, err := st.Load(tenant)
	if err != nil {
		return nil, nil, err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	return data, snap, nil
}

// tenantNameRE is the safe-tenant-name alphabet: nothing that can
// traverse paths or surprise a filesystem.
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidTenant reports whether name is an acceptable tenant name.
func ValidTenant(name string) bool {
	return tenantNameRE.MatchString(name) && !strings.Contains(name, "..")
}

// MemStore is the in-memory Store: durable only for the process
// lifetime, used by tests and by pppd -store mem. It still copies on
// both sides so callers cannot alias its buffers.
type MemStore struct {
	mu sync.Mutex
	m  map[string]*memTenant
}

// memTenant is one tenant's checkpoint and log bytes.
type memTenant struct {
	ckpt, log []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]*memTenant{}} }

func (ms *MemStore) tenant(name string) *memTenant {
	t := ms.m[name]
	if t == nil {
		t = &memTenant{}
		ms.m[name] = t
	}
	return t
}

// Append implements Store.
func (ms *MemStore) Append(tenant string, rec []byte) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	t := ms.tenant(tenant)
	t.log = append(t.log, rec...)
	return nil
}

// Save implements Store.
func (ms *MemStore) Save(tenant string, ckpt []byte) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	t := ms.tenant(tenant)
	t.ckpt, t.log = append([]byte(nil), ckpt...), nil
	return nil
}

// durable parses a copy of the tenant's state.
func (ms *MemStore) durable(tenant string) (durable, error) {
	ms.mu.Lock()
	t := ms.m[tenant]
	var ckpt, log []byte
	if t != nil {
		ckpt, log = append([]byte(nil), t.ckpt...), append([]byte(nil), t.log...)
	}
	ms.mu.Unlock()
	if len(ckpt) == 0 && len(log) == 0 {
		return durable{}, fmt.Errorf("serve: tenant %q: %w", tenant, os.ErrNotExist)
	}
	d, err := parseDurable(ckpt, log)
	if err != nil {
		return d, fmt.Errorf("serve: store: tenant %q: %w", tenant, err)
	}
	return d, nil
}

// Load implements Store.
func (ms *MemStore) Load(tenant string) ([]byte, error) {
	data, _, err := ms.LoadSnapshot(tenant)
	return data, err
}

// LoadSnapshot is Load that also returns the replayed aggregate.
func (ms *MemStore) LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error) {
	d, err := ms.durable(tenant)
	if err != nil {
		return nil, nil, err
	}
	return d.fold()
}

// Log implements Store.
func (ms *MemStore) Log(tenant string) ([]LogEntry, error) {
	d, err := ms.durable(tenant)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return d.commitLog(), err
}

// Tenants implements Store.
func (ms *MemStore) Tenants() ([]string, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]string, 0, len(ms.m))
	for t := range ms.m { //ppp:allow(mapiter) — sorted below
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// FileStore keeps each tenant's durable state under one directory:
//
//	<dir>/<tenant>.ppsnap        checkpoint: aggregate as of seq n + commit log 1..n
//	<dir>/<tenant>.ppsnap.prev   previous checkpoint (fallback)
//	<dir>/<tenant>.ppsnap.tmp    in-flight checkpoint write
//	<dir>/<tenant>.pplog         one CRC-framed record per batch since
//
// Appends write one record at the log's end and fsync it. Checkpoints
// inherit snapshot.Store's atomic write + fsync + .prev rotation, and
// then truncate the log; a crash between the two leaves records the
// checkpoint covers, which replay skips by seq. Open runs crash
// recovery over every tenant before serving: stale or torn .tmp files
// are rolled back, torn rotations are repaired, and a log's torn tail
// record (an append that was never acked) is cut off, so the store
// always comes up at each tenant's last acknowledged state.
type FileStore struct {
	dir  string
	mu   sync.Mutex
	logs map[string]*logFile
}

// logFile is one tenant's open log: size is the length of its whole
// records, and torn marks bytes past size that the next append must
// cut off first.
type logFile struct {
	f    *os.File
	size int64
	torn bool
}

const (
	snapExt = ".ppsnap"
	logExt  = ".pplog"
)

// OpenFileStore opens (creating if needed) a file-backed store rooted
// at dir and recovers every tenant from whatever a crash left behind.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	fs := &FileStore{dir: dir, logs: map[string]*logFile{}}
	if err := fs.recoverAll(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Dir returns the store's root directory.
func (fs *FileStore) Dir() string { return fs.dir }

func (fs *FileStore) pathOf(tenant string) string {
	return filepath.Join(fs.dir, tenant+snapExt)
}

func (fs *FileStore) logPath(tenant string) string {
	return filepath.Join(fs.dir, tenant+logExt)
}

// recoverAll rolls every tenant back to its last acknowledged state:
// checkpoint files as snapshot.Store.Recover does, and each log cut
// back to its last whole record.
func (fs *FileStore) recoverAll() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	// A torn rotation leaves only .prev/.tmp behind, and a tenant that
	// never checkpointed has only a log, so every suffix names one.
	seen := map[string]bool{}
	var tenants []string
	for _, e := range entries {
		for _, suffix := range []string{snapExt, snapExt + ".prev", snapExt + ".tmp", logExt} {
			if t, ok := strings.CutSuffix(e.Name(), suffix); ok && ValidTenant(t) && !seen[t] {
				tenants = append(tenants, t)
				seen[t] = true
			}
		}
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if _, err := snapshot.NewStore(fs.pathOf(t)).Recover(); err != nil {
			return fmt.Errorf("serve: store: recover %s: %w", t, err)
		}
		if err := fs.recoverLog(t); err != nil {
			return fmt.Errorf("serve: store: recover %s: %w", t, err)
		}
	}
	return nil
}

// recoverLog cuts a tenant's log back to its last whole record.
func (fs *FileStore) recoverLog(tenant string) error {
	log, err := os.ReadFile(fs.logPath(tenant))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	valid := 0
	for rest := log; len(rest) > 0; {
		_, next, ferr := nextFrame(rest)
		if ferr != nil {
			break
		}
		rest, valid = next, len(log)-len(next)
	}
	if valid == len(log) {
		return nil
	}
	f, err := os.OpenFile(fs.logPath(tenant), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openLog returns the tenant's open log, opening (and on first use
// creating, with the directory entry fsynced) it. Callers hold fs.mu.
func (fs *FileStore) openLog(tenant string) (*logFile, error) {
	if lf := fs.logs[tenant]; lf != nil {
		return lf, nil
	}
	path := fs.logPath(tenant)
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && errors.Is(statErr, os.ErrNotExist) {
		err = snapshot.SyncDir(fs.dir)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	lf := &logFile{f: f, size: st.Size()}
	fs.logs[tenant] = lf
	return lf, nil
}

// Append implements Store: the record is written at the end of the
// log's whole records and fsynced before Append returns. A failed
// write is cut back off, so the log stays a run of whole records.
func (fs *FileStore) Append(tenant string, rec []byte) error {
	if !ValidTenant(tenant) {
		return fmt.Errorf("serve: store: invalid tenant %q", tenant)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	lf, err := fs.openLog(tenant)
	if err != nil {
		return fmt.Errorf("serve: store: append: %w", err)
	}
	if lf.torn {
		if err := lf.f.Truncate(lf.size); err != nil {
			return fmt.Errorf("serve: store: append: %w", err)
		}
		lf.torn = false
	}
	if _, err := lf.f.WriteAt(rec, lf.size); err != nil {
		lf.torn = true
		return fmt.Errorf("serve: store: append: %w", err)
	}
	if err := lf.f.Sync(); err != nil {
		lf.torn = true
		return fmt.Errorf("serve: store: append: %w", err)
	}
	lf.size += int64(len(rec))
	return nil
}

// Save implements Store: the checkpoint is written with
// snapshot.Store's atomic rename and directory fsync, then the log is
// truncated.
func (fs *FileStore) Save(tenant string, ckpt []byte) error {
	if !ValidTenant(tenant) {
		return fmt.Errorf("serve: store: invalid tenant %q", tenant)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := snapshot.NewStore(fs.pathOf(tenant)).SaveBytes(ckpt); err != nil {
		return err
	}
	// The reset needs no fsync: until it is durable, replay skips the
	// records the checkpoint covers.
	if err := os.Truncate(fs.logPath(tenant), 0); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("serve: store: reset log: %w", err)
	}
	if lf := fs.logs[tenant]; lf != nil {
		lf.size, lf.torn = 0, false
	}
	return nil
}

// durable reads and parses the tenant's state: its log replayed onto
// the checkpoint, or onto the .prev checkpoint when the checkpoint is
// damaged, exactly as snapshot.Store.Load falls back. The fallback is
// refused when the log exists but is empty: a checkpoint has reset it
// since .prev was written, so the commits between the two are gone
// from both, and serving .prev would lose acked commits and reuse
// their seqs.
func (fs *FileStore) durable(tenant string) (durable, error) {
	if !ValidTenant(tenant) {
		return durable{}, fmt.Errorf("serve: store: invalid tenant %q", tenant)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	log, err := os.ReadFile(fs.logPath(tenant))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return durable{}, fmt.Errorf("serve: store: %w", err)
	}
	resetLog := err == nil && len(log) == 0
	st := snapshot.NewStore(fs.pathOf(tenant))
	var d durable
	ckpt, err := os.ReadFile(st.Path())
	if err == nil {
		if d, err = parseDurable(ckpt, log); err == nil {
			return d, nil
		}
	}
	prev, perr := os.ReadFile(st.PrevPath())
	switch {
	case perr == nil && resetLog:
		perr = errors.New("older than the last log reset")
	case perr == nil:
		if d, perr = parseDurable(prev, log); perr == nil {
			return d, nil
		}
	}
	switch {
	case !errors.Is(err, os.ErrNotExist):
		return d, fmt.Errorf("serve: store: tenant %q: checkpoint unusable: %v (fallback: %v)", tenant, err, perr)
	case len(log) > 0 && errors.Is(perr, os.ErrNotExist):
		// A tenant that has not checkpointed yet: all in the log.
		if d, err = parseDurable(nil, log); err != nil {
			return d, fmt.Errorf("serve: store: tenant %q: %w", tenant, err)
		}
		return d, nil
	case len(log) > 0:
		return d, fmt.Errorf("serve: store: tenant %q: checkpoint missing, fallback unusable: %v", tenant, perr)
	default:
		return d, fmt.Errorf("serve: store: tenant %q: %w (fallback: %v)", tenant, os.ErrNotExist, perr)
	}
}

// Load implements Store.
func (fs *FileStore) Load(tenant string) ([]byte, error) {
	data, _, err := fs.LoadSnapshot(tenant)
	return data, err
}

// LoadSnapshot is Load that also returns the replayed aggregate.
func (fs *FileStore) LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error) {
	d, err := fs.durable(tenant)
	if err != nil {
		return nil, nil, err
	}
	return d.fold()
}

// Log implements Store.
func (fs *FileStore) Log(tenant string) ([]LogEntry, error) {
	d, err := fs.durable(tenant)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return d.commitLog(), err
}

// Tenants implements Store.
func (fs *FileStore) Tenants() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []string
	for _, e := range entries {
		for _, ext := range []string{snapExt, logExt} {
			if t, ok := strings.CutSuffix(e.Name(), ext); ok && ValidTenant(t) {
				if ext == logExt {
					if _, err := os.Stat(fs.pathOf(t)); err == nil {
						continue // listed by its checkpoint
					}
				}
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// tearTmp leaves a deliberately torn in-flight checkpoint behind, for
// partial-write fault injection: the bytes a real short write would
// strand in .tmp, which the next recovery must roll back past.
func (fs *FileStore) tearTmp(tenant string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := snapshot.NewStore(fs.pathOf(tenant))
	_ = os.WriteFile(st.TmpPath(), data[:len(data)/2], 0o644)
}

// tearLog leaves a deliberately torn record at the log's end, as a
// crash mid-append would: recovery on the next open cuts it off, and
// the next append overwrites it.
func (fs *FileStore) tearLog(tenant string, rec []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	lf, err := fs.openLog(tenant)
	if err != nil {
		return
	}
	if _, err := lf.f.WriteAt(rec[:len(rec)/2], lf.size); err == nil {
		lf.torn = true
		_ = lf.f.Sync()
	}
}

// tearer is implemented by stores that can leave torn bytes behind
// when a partial-write fault fires.
type tearer interface {
	tearTmp(tenant string, data []byte)
	tearLog(tenant string, rec []byte)
}

// FaultStore wraps a Store with deterministic write-side fault
// injection on both log appends and checkpoints: StoreFail makes the
// write fail with nothing written, PartialWrite makes it fail after
// tearing it (a torn log tail or a torn in-flight checkpoint, when the
// inner store has anything to tear). The decision site is a pure
// function of (tenant, per-tenant write ordinal), so a fixed commit
// sequence yields a fixed fault pattern.
type FaultStore struct {
	Inner  Store
	Inject *faultinject.Injector

	mu       sync.Mutex
	ordinals map[string]uint64
}

// NewFaultStore wraps inner; a nil injector injects nothing.
func NewFaultStore(inner Store, inj *faultinject.Injector) *FaultStore {
	return &FaultStore{Inner: inner, Inject: inj, ordinals: map[string]uint64{}}
}

// ErrInjectedSave reports an injected write failure, so drills can
// tell injected faults from real ones.
var ErrInjectedSave = errors.New("serve: injected store fault")

// fault draws the next write's fault for tenant; on a partial write it
// calls tear with the inner store when that store can tear.
func (f *FaultStore) fault(tenant string, data []byte, tear func(tearer)) error {
	f.mu.Lock()
	ord := f.ordinals[tenant]
	f.ordinals[tenant] = ord + 1
	f.mu.Unlock()
	site := hash64(tenant) ^ ord
	if f.Inject.Hit(faultinject.StoreFail, site) {
		return fmt.Errorf("%w: storefail at site %d", ErrInjectedSave, site)
	}
	if f.Inject.Hit(faultinject.PartialWrite, site) {
		if t, ok := f.Inner.(tearer); ok && len(data) > 1 {
			tear(t)
		}
		return fmt.Errorf("%w: partial write at site %d", ErrInjectedSave, site)
	}
	return nil
}

// Append implements Store.
func (f *FaultStore) Append(tenant string, rec []byte) error {
	if err := f.fault(tenant, rec, func(t tearer) { t.tearLog(tenant, rec) }); err != nil {
		return err
	}
	return f.Inner.Append(tenant, rec)
}

// Save implements Store.
func (f *FaultStore) Save(tenant string, ckpt []byte) error {
	if err := f.fault(tenant, ckpt, func(t tearer) { t.tearTmp(tenant, ckpt) }); err != nil {
		return err
	}
	return f.Inner.Save(tenant, ckpt)
}

// Load implements Store.
func (f *FaultStore) Load(tenant string) ([]byte, error) { return f.Inner.Load(tenant) }

// LoadSnapshot passes the inner store's decode through.
func (f *FaultStore) LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error) {
	return loadAggregate(f.Inner, tenant)
}

// Log implements Store.
func (f *FaultStore) Log(tenant string) ([]LogEntry, error) { return f.Inner.Log(tenant) }

// Tenants implements Store.
func (f *FaultStore) Tenants() ([]string, error) { return f.Inner.Tenants() }

// hash64 is the FNV-1a fold used for fault sites and idempotency-key
// digests; stable across runs by construction.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
