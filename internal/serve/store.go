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
//     updated aggregate has been committed to the Store; a crash at
//     any moment loses nothing a client was told was accepted.
//   - Bounded everything. The ingest queue, request bodies, commit
//     batches, and per-request waits all have hard limits; overload
//     turns into 429/503 + Retry-After, never unbounded memory.
//   - Whole-request quarantine. A corrupt or oversized snapshot is
//     rejected and accounted; it never contaminates an aggregate
//     (mirroring replication's whole-shard quarantine).
//   - Graceful degradation. Under pressure the server sheds read and
//     plan traffic before ingest, and group commit stretches the
//     merge/save cadence so one fsync amortizes over a deeper queue.
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

// Store abstracts where durable tenant aggregates live. Save's
// contract is the service's foundation: a nil error means the bytes
// are recoverable after a crash, so the server may acknowledge the
// snapshots folded into them. Implementations must tolerate torn
// writes from previous incarnations (recover on open, not on save).
type Store interface {
	// Save durably replaces tenant's aggregate bytes.
	Save(tenant string, data []byte) error
	// Load returns the last durably saved aggregate, or os.ErrNotExist
	// (possibly wrapped) when the tenant has none.
	Load(tenant string) ([]byte, error)
	// Tenants lists tenants with durable state, sorted.
	Tenants() ([]string, error)
}

// snapshotLoader is implemented by stores whose Load already decodes
// the bytes to validate them; they hand back that decode with the
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
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string][]byte{}} }

// Save implements Store.
func (ms *MemStore) Save(tenant string, data []byte) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.m[tenant] = append([]byte(nil), data...)
	return nil
}

// Load implements Store.
func (ms *MemStore) Load(tenant string) ([]byte, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	data, ok := ms.m[tenant]
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q: %w", tenant, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
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

// FileStore keeps one snapshot.Store per tenant under a directory:
//
//	<dir>/<tenant>.ppsnap        current aggregate
//	<dir>/<tenant>.ppsnap.prev   previous good aggregate
//	<dir>/<tenant>.ppsnap.tmp    in-flight write
//
// Saves inherit the atomic write + fsync + .prev rotation, and Open
// runs crash recovery over every tenant before serving: stale or torn
// .tmp files are rolled back and torn rotations are repaired, so the
// store always comes up at each tenant's last acknowledged aggregate.
type FileStore struct {
	dir string
	mu  sync.Mutex
}

const snapExt = ".ppsnap"

// OpenFileStore opens (creating if needed) a file-backed store rooted
// at dir and recovers every tenant from whatever a crash left behind.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	fs := &FileStore{dir: dir}
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

// recoverAll rolls every tenant back to its last acknowledged state
// (see snapshot.Store.Recover) and validates that what remains
// decodes, falling back past torn primaries to .prev.
func (fs *FileStore) recoverAll() error {
	tenants, err := fs.Tenants()
	if err != nil {
		return err
	}
	// Tenants() only sees *.ppsnap primaries; a torn rotation leaves
	// only .prev/.tmp behind, so sweep those too.
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	seen := map[string]bool{}
	for _, t := range tenants {
		seen[t] = true
	}
	for _, e := range entries {
		name := e.Name()
		for _, suffix := range []string{snapExt + ".prev", snapExt + ".tmp"} {
			if t, ok := strings.CutSuffix(name, suffix); ok && !seen[t] {
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
	}
	return nil
}

// Save implements Store with crash-safe semantics: the bytes are
// fsynced, renamed into place, and the directory entry is fsynced
// before Save returns.
func (fs *FileStore) Save(tenant string, data []byte) error {
	if !ValidTenant(tenant) {
		return fmt.Errorf("serve: store: invalid tenant %q", tenant)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return snapshot.NewStore(fs.pathOf(tenant)).SaveBytes(data)
}

// Load implements Store, falling back past a torn or corrupt primary
// to the .prev rotation exactly as snapshot.Store does.
func (fs *FileStore) Load(tenant string) ([]byte, error) {
	data, _, err := fs.LoadSnapshot(tenant)
	return data, err
}

// LoadSnapshot is Load that also returns the decoded aggregate the
// validation produced.
func (fs *FileStore) LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error) {
	if !ValidTenant(tenant) {
		return nil, nil, fmt.Errorf("serve: store: invalid tenant %q", tenant)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := snapshot.NewStore(fs.pathOf(tenant))
	data, err := os.ReadFile(st.Path())
	if err == nil {
		if snap, derr := snapshot.Decode(data); derr == nil {
			return data, snap, nil
		}
	}
	prev, perr := os.ReadFile(st.PrevPath())
	if perr == nil {
		if snap, derr := snapshot.Decode(prev); derr == nil {
			return prev, snap, nil
		}
	}
	if err == nil {
		err = fmt.Errorf("serve: store: tenant %q: primary and fallback both corrupt", tenant)
	} else if errors.Is(err, os.ErrNotExist) && !errors.Is(perr, os.ErrNotExist) {
		err = fmt.Errorf("serve: store: tenant %q: %w (fallback unusable: %v)", tenant, os.ErrNotExist, perr)
	}
	return nil, nil, err
}

// Tenants implements Store.
func (fs *FileStore) Tenants() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if t, ok := strings.CutSuffix(e.Name(), snapExt); ok && ValidTenant(t) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out, nil
}

// tearTmp leaves a deliberately torn in-flight write behind, for
// partial-write fault injection: the bytes a real short write would
// strand in .tmp, which the next recovery must roll back past.
func (fs *FileStore) tearTmp(tenant string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := snapshot.NewStore(fs.pathOf(tenant))
	_ = os.WriteFile(st.TmpPath(), data[:len(data)/2], 0o644)
}

// tearer is implemented by stores that can leave torn bytes behind
// when a partial-write fault fires.
type tearer interface {
	tearTmp(tenant string, data []byte)
}

// FaultStore wraps a Store with deterministic save-side fault
// injection: StoreFail makes Save fail with nothing written,
// PartialWrite makes it fail after tearing a write (when the inner
// store has anything to tear). The decision site is a pure function
// of (tenant, per-tenant save ordinal), so a fixed commit sequence
// yields a fixed fault pattern.
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

// ErrInjectedSave reports an injected save failure, so drills can
// tell injected faults from real ones.
var ErrInjectedSave = errors.New("serve: injected store fault")

func (f *FaultStore) site(tenant string) uint64 {
	f.mu.Lock()
	ord := f.ordinals[tenant]
	f.ordinals[tenant] = ord + 1
	f.mu.Unlock()
	return hash64(tenant) ^ ord
}

// Save implements Store.
func (f *FaultStore) Save(tenant string, data []byte) error {
	site := f.site(tenant)
	if f.Inject.Hit(faultinject.StoreFail, site) {
		return fmt.Errorf("%w: storefail at site %d", ErrInjectedSave, site)
	}
	if f.Inject.Hit(faultinject.PartialWrite, site) {
		if t, ok := f.Inner.(tearer); ok && len(data) > 1 {
			t.tearTmp(tenant, data)
		}
		return fmt.Errorf("%w: partial write at site %d", ErrInjectedSave, site)
	}
	return f.Inner.Save(tenant, data)
}

// Load implements Store.
func (f *FaultStore) Load(tenant string) ([]byte, error) { return f.Inner.Load(tenant) }

// LoadSnapshot passes the inner store's decode through.
func (f *FaultStore) LoadSnapshot(tenant string) ([]byte, *profile.Snapshot, error) {
	return loadAggregate(f.Inner, tenant)
}

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
