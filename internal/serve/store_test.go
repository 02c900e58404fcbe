package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pathprof/internal/faultinject"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
)

func TestValidTenant(t *testing.T) {
	for _, name := range []string{"app", "mcf", "a-b_c.d", "A1", "x"} {
		if !serve.ValidTenant(name) {
			t.Errorf("ValidTenant(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", ".hidden", "-x", "a/b", "a b", "bad..name", "..",
		"averyveryveryveryveryveryveryveryveryveryveryverylongtenantname-over64chars"} {
		if serve.ValidTenant(name) {
			t.Errorf("ValidTenant(%q) = true, want false", name)
		}
	}
}

func TestMemStoreRoundTripAndIsolation(t *testing.T) {
	ms := serve.NewMemStore()
	if _, err := ms.Load("app"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing tenant: %v, want ErrNotExist", err)
	}
	data := encodeSnap(0, 0)
	if err := ms.Save("app", data); err != nil {
		t.Fatal(err)
	}
	got, err := ms.Load("app")
	if err != nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("round trip failed: %v", err)
	}
	// Mutating the returned slice must not touch the stored copy.
	got.Data[0] ^= 0xff
	again, _ := ms.Load("app")
	if !bytes.Equal(again.Data, data) {
		t.Error("Load aliases internal buffer")
	}
	names, err := ms.Tenants()
	if err != nil || len(names) != 1 || names[0] != "app" {
		t.Errorf("Tenants = %v, %v", names, err)
	}
}

func TestFileStoreFallsBackPastCorruptPrimary(t *testing.T) {
	dir := t.TempDir()
	fs, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := encodeSnap(0, 0), encodeSnap(0, 1)
	if err := fs.Save("app", v1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("app", v2); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary in place; Load must fall back to .prev (v1).
	primary := filepath.Join(dir, "app.ppsnap")
	if err := os.WriteFile(primary, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := durableBytes(fs, "app")
	if err != nil {
		t.Fatalf("load with corrupt primary: %v", err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("fallback did not return the previous good aggregate")
	}
}

func TestOpenFileStoreRecoversTornState(t *testing.T) {
	dir := t.TempDir()
	fs, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := encodeSnap(1, 0), encodeSnap(1, 1)
	if err := fs.Save("app", v1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("app", v2); err != nil {
		t.Fatal(err)
	}
	// Crash mid-rotation: primary moved to .prev, torn bytes in .tmp.
	primary := filepath.Join(dir, "app.ppsnap")
	if err := os.Rename(primary, primary+".prev"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(primary+".tmp", v2[:len(v2)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery rolls back to the last acknowledged aggregate.
	fs2, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := durableBytes(fs2, "app")
	if err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("recovery lost the last acknowledged aggregate")
	}
	if _, err := os.Stat(primary + ".tmp"); !os.IsNotExist(err) {
		t.Error("stale .tmp survived reopen")
	}
	if _, err := snapshot.Decode(got); err != nil {
		t.Errorf("recovered bytes corrupt: %v", err)
	}
}

func TestFileStoreRejectsHostileTenants(t *testing.T) {
	fs, err := serve.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape", "a/b", "..", ""} {
		if err := fs.Save(name, encodeSnap(0, 0)); err == nil {
			t.Errorf("Save(%q) accepted a hostile tenant name", name)
		}
		if _, err := fs.Load(name); err == nil {
			t.Errorf("Load(%q) accepted a hostile tenant name", name)
		}
	}
}

func TestFaultStoreDeterministicPattern(t *testing.T) {
	inj, err := faultinject.Parse("seed=5,kind=storefail+partialwrite,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	data := encodeSnap(0, 0)
	pattern := func() []bool {
		fs := serve.NewFaultStore(serve.NewMemStore(), inj)
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, fs.Save("app", data) != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault pattern diverged at save %d", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("degenerate fault pattern: %d/%d saves failed", faults, len(a))
	}
	// Injected failures are distinguishable from real ones.
	fs := serve.NewFaultStore(serve.NewMemStore(), inj)
	for i := 0; i < 32; i++ {
		if err := fs.Save("app", data); err != nil {
			if !errors.Is(err, serve.ErrInjectedSave) {
				t.Fatalf("injected fault not marked: %v", err)
			}
			return
		}
	}
}

func TestFaultStorePartialWriteLeavesTornTmp(t *testing.T) {
	dir := t.TempDir()
	inner, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// rate=1: every save tears (partialwrite dominates once storefail
	// is absent from the spec).
	inj, err := faultinject.Parse("seed=1,kind=partialwrite,rate=1")
	if err != nil {
		t.Fatal(err)
	}
	fs := serve.NewFaultStore(inner, inj)
	data := encodeSnap(2, 2)
	if err := fs.Save("app", data); !errors.Is(err, serve.ErrInjectedSave) {
		t.Fatalf("partial write not injected: %v", err)
	}
	torn, err := os.ReadFile(filepath.Join(dir, "app.ppsnap.tmp"))
	if err != nil {
		t.Fatalf("no torn .tmp left behind: %v", err)
	}
	if len(torn) == 0 || len(torn) >= len(data) {
		t.Errorf("torn bytes len %d, want a strict prefix of %d", len(torn), len(data))
	}
	// Reopen recovers past the torn write; the tenant has no durable
	// state (nothing was ever acknowledged).
	fs2, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Load("app"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("load after torn-only history: %v, want ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "app.ppsnap.tmp")); !os.IsNotExist(err) {
		t.Error("torn .tmp survived recovery")
	}
}

// TestFailedAppendLeavesStateIntact: an injected failure of a batch's
// log append, outright or torn halfway, nacks the batch and leaves the
// served aggregate, the commit log and the recovered durable state as
// they were; the next append lands after the last whole record.
func TestFailedAppendLeavesStateIntact(t *testing.T) {
	for _, kind := range []string{"storefail", "partialwrite"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			s := newServer(t, serve.Config{Store: fs})
			s.Start()
			if _, _, err := s.Ingest(ctx, "app", "k1", testSnap(0, 1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			wantData, wantFP := s.AggregateBytes("app")

			inj, err := faultinject.Parse("seed=1,kind=" + kind + ",rate=1")
			if err != nil {
				t.Fatal(err)
			}
			s2 := newServer(t, serve.Config{Store: serve.NewFaultStore(fs, inj)})
			s2.Start()
			if _, code, err := s2.Ingest(ctx, "app", "k2", testSnap(1, 2)); err == nil || code != 503 {
				t.Fatalf("ingest over a failing append: code %d, err %v; want 503", code, err)
			}
			if data, fp := s2.AggregateBytes("app"); fp != wantFP || !bytes.Equal(data, wantData) {
				t.Errorf("served aggregate %s after a nack, want %s", fp, wantFP)
			}
			if log := s2.CommitLog("app"); len(log) != 1 {
				t.Errorf("commit log %+v after a nack, want only k1", log)
			}
			reopened, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := reopened.Load("app")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot.Encode(rec.Agg), wantData) {
				t.Error("durable aggregate changed by a failed append")
			}
			if len(rec.Log) != 1 {
				t.Errorf("durable commit log %+v, want only k1", rec.Log)
			}

			// The same store heals: the retry is a fresh seq 2 whose
			// record follows k1's, torn bytes or not.
			s3 := newServer(t, serve.Config{Store: fs})
			s3.Start()
			ack, _, err := s3.Ingest(ctx, "app", "k2", testSnap(1, 2))
			if err != nil || ack.Seq != 2 || ack.Deduped {
				t.Fatalf("retry = %+v, %v; want fresh seq 2", ack, err)
			}
			want := profile.NewSnapshot()
			want.MergeSnapshot(testSnap(0, 1))
			want.MergeSnapshot(testSnap(1, 2))
			again, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if data, err := durableBytes(again, "app"); err != nil || !bytes.Equal(data, snapshot.Encode(want)) {
				t.Errorf("recovered aggregate is not k1+k2 (err %v)", err)
			}
		})
	}
}

// saveFailStore fails its first n checkpoints, then heals.
type saveFailStore struct {
	serve.Store
	mu           sync.Mutex
	fails, saves int
}

func (f *saveFailStore) Save(tenant string, ckpt []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fails > 0 {
		f.fails--
		return errors.New("checkpoint failure")
	}
	f.saves++
	return f.Store.Save(tenant, ckpt)
}

// TestFailedCheckpointRetriesWithoutNack: a checkpoint that fails
// after its batch was acked changes no ack; the acked commits stay in
// the log, and a later commit retries the checkpoint.
func TestFailedCheckpointRetriesWithoutNack(t *testing.T) {
	inner := serve.NewMemStore()
	store := &saveFailStore{Store: inner, fails: 2}
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{Store: store, Registry: reg})
	s.Start()
	ctx := context.Background()
	want := profile.NewSnapshot()
	for i := 0; i < 3; i++ {
		ack, code, err := s.Ingest(ctx, "app", fmt.Sprintf("k%d", i), testSnap(2, i))
		if err != nil || ack.Seq != uint64(i+1) {
			t.Fatalf("ingest %d: %+v, code %d, err %v", i, ack, code, err)
		}
		want.MergeSnapshot(testSnap(2, i))
		if data, err := durableBytes(inner, "app"); err != nil || !bytes.Equal(data, snapshot.Encode(want)) {
			t.Fatalf("durable aggregate after ack %d is not the fold (err %v)", i, err)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if store.saves != 1 {
		t.Errorf("%d checkpoints landed, want the third attempt's", store.saves)
	}
	if v := reg.Counter("ppp_serve_checkpoint_errors_total", "").Value(); v != 2 {
		t.Errorf("checkpoint error counter = %d, want 2", v)
	}
	rec, err := inner.Load("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Log) != 3 {
		t.Errorf("commit log after the checkpoint = %+v, want 3 entries", rec.Log)
	}
}

// TestDamagedCheckpointAfterLogResetRefusesTenant: once a checkpoint
// has reset the log, the commits since .prev live only in that
// checkpoint. If it is damaged the tenant is refused, not rolled back
// to .prev, which would lose acked commits and hand their seqs out
// again.
func TestDamagedCheckpointAfterLogResetRefusesTenant(t *testing.T) {
	dir := t.TempDir()
	fs, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, serve.Config{Store: fs})
	s.Start()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := s.Ingest(ctx, "app", fmt.Sprintf("k%d", i), testSnap(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "app.pplog")); err != nil || st.Size() != 0 {
		t.Fatalf("want the last commit to have checkpointed and reset the log (err %v)", err)
	}
	primary := filepath.Join(dir, "app.ppsnap")
	data, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(primary, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Load("app"); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load served a fallback older than the log reset (err %v)", err)
	}
	s2 := newServer(t, serve.Config{Store: reopened})
	s2.Start()
	if _, code, err := s2.Ingest(ctx, "app", "k5", testSnap(1, 5)); err == nil || code != 503 {
		t.Errorf("ingest into the damaged tenant: code %d, err %v; want 503", code, err)
	}
}
