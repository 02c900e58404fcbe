package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pathprof/internal/faultinject"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
)

// TestChaosDrill is the acceptance drill for the service's robustness
// story: 8 concurrent emitters publish distinct snapshots through a
// deterministic fault matrix — dropped connections (pre- and
// post-commit), stalled responses forcing client timeouts, torn store
// writes, and outright save failures — with bounded queues and
// backpressure in the path. The invariant under all of it:
//
//  1. every acknowledged snapshot appears in the commit log exactly
//     once (retries dedupe, drops lose nothing acked);
//  2. the served aggregate is BIT-identical to a fault-free fold of
//     the committed snapshots in commit-log order;
//  3. after a simulated crash (reopen the store directory, fresh
//     server), the recovered aggregate is still bit-identical.
func TestChaosDrill(t *testing.T) {
	const (
		tenant   = "drill"
		emitters = 8
		perEmit  = 4
	)
	dir := t.TempDir()
	store, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("seed=11,kind=conndrop+netstall+partialwrite+storefail,rate=0.15")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1)
	s := newServer(t, serve.Config{
		Store:      store,
		QueueDepth: 32,
		BatchMax:   8,
		StallTime:  300 * time.Millisecond,
		Registry:   reg,
		Inject:     inj,
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Every snapshot is known up front, keyed by its idempotency key,
	// so the drill can refold whatever subset actually committed.
	published := map[string][]byte{}
	for i := 0; i < emitters; i++ {
		for j := 0; j < perEmit; j++ {
			published[fmt.Sprintf("e%d-s%d", i, j)] = encodeSnap(i, j)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var mu sync.Mutex
	acked := map[string]serve.Ack{}
	var wg sync.WaitGroup
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &serve.Client{
				BaseURL:        ts.URL,
				MaxAttempts:    16,
				AttemptTimeout: 150 * time.Millisecond,
				Backoff:        serve.Backoff{Base: 5 * time.Millisecond, Max: 80 * time.Millisecond, Seed: uint64(i)},
			}
			for j := 0; j < perEmit; j++ {
				key := fmt.Sprintf("e%d-s%d", i, j)
				res, err := client.Publish(ctx, tenant, key, published[key])
				if err != nil {
					t.Errorf("emitter %d: publish %s: %v", i, key, err)
					continue
				}
				mu.Lock()
				acked[key] = res.Ack
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	// Drain: queued-but-unacked work commits before the server stops.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// (1) Exactly-once: the commit log holds each committed key once,
	// every key is one we published, and every acked key committed.
	log := s.CommitLog(tenant)
	seen := map[string]bool{}
	for _, e := range log {
		if seen[e.Key] {
			t.Fatalf("key %s committed twice — retries double-counted", e.Key)
		}
		seen[e.Key] = true
		if _, ok := published[e.Key]; !ok {
			t.Fatalf("log holds unknown key %s", e.Key)
		}
	}
	for key := range acked { //ppp:allow(mapiter) — membership check only
		if !seen[key] {
			t.Errorf("acked key %s missing from the commit log", key)
		}
	}
	t.Logf("chaos drill: %d/%d acked, %d committed", len(acked), len(published), len(log))

	// (2) Bit-identity: a fault-free fold of the committed snapshots
	// in log order reproduces the served aggregate byte for byte.
	want := profile.NewSnapshot()
	for _, e := range log {
		one, err := snapshot.Decode(published[e.Key])
		if err != nil {
			t.Fatal(err)
		}
		want.MergeSnapshot(one)
	}
	wantBytes := snapshot.Encode(want)
	gotBytes, gotFP := s.AggregateBytes(tenant)
	if gotFP != fmt.Sprintf("%016x", want.Fingerprint()) {
		t.Errorf("served fingerprint %s != fault-free fold %016x", gotFP, want.Fingerprint())
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("served aggregate is not bit-identical to the fault-free fold")
	}

	// (3) Crash and recover: reopening the store directory (recovery
	// sweeps torn .tmp files the partial-write faults left behind) and
	// starting a fresh fault-free server serves the same bytes.
	store2, err := serve.OpenFileStore(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	s2 := newServer(t, serve.Config{Store: store2})
	recovered, recoveredFP := s2.AggregateBytes(tenant)
	if recoveredFP != gotFP {
		t.Errorf("recovered fingerprint %s != pre-crash %s", recoveredFP, gotFP)
	}
	if !bytes.Equal(recovered, wantBytes) {
		t.Error("recovered aggregate is not bit-identical to the acked state")
	}

	// Accounting (writers have quiesced): every committed snapshot was
	// acked fresh exactly once, and no snapshot was quarantined.
	if v := reg.Counter("ppp_serve_ingest_acked_total", "").Value(); v != int64(len(log)) {
		t.Errorf("acked counter %d != %d committed", v, len(log))
	}
	if v := reg.Counter("ppp_serve_ingest_quarantined_total", "").Value(); v != 0 {
		t.Errorf("quarantined %d well-formed snapshots", v)
	}
	if v := reg.Counter("ppp_serve_store_save_errors_total", "").Value(); v > 0 {
		t.Logf("chaos drill: %d injected save failures survived", v)
	}
	var faults, stores int
	for _, e := range reg.Trace().Snapshot() {
		switch e.Kind {
		case telemetry.EvFaultInject:
			faults++
		case telemetry.EvStoreFault:
			stores++
		}
	}
	t.Logf("chaos drill: %d network faults, %d store faults traced", faults, stores)
	if faults+stores == 0 {
		t.Error("fault matrix injected nothing — the drill exercised no faults")
	}
}

// TestChaosDrillDeterministicOutcome reruns a small drill with the
// same seed and asserts the final aggregate is identical: the fault
// pattern is a pure function of the spec, not of scheduling.
func TestChaosDrillDeterministicOutcome(t *testing.T) {
	run := func() string {
		inj, err := faultinject.Parse("seed=3,kind=storefail,rate=0.3")
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(t, serve.Config{Store: serve.NewMemStore(), Inject: inj, BatchMax: 1})
		s.Start()
		ctx := context.Background()
		for j := 0; j < 6; j++ {
			key := fmt.Sprintf("s%d", j)
			// Direct ingest with manual retry: a nacked save retries up
			// to 8 times; the per-ordinal fault stream makes the retry
			// count deterministic.
			for a := 0; a < 8; a++ {
				if _, _, err := s.Ingest(ctx, "app", key, testSnap(0, j)); err == nil {
					break
				}
			}
		}
		_, fp := s.AggregateBytes("app")
		return fp
	}
	a, b := run(), run()
	if a != b || a == "" {
		t.Fatalf("same seed, different outcomes: %q vs %q", a, b)
	}
}

// crashStore is a FileStore whose process dies at a chosen point: the
// write that reaches it goes to disk as far as the point says and
// fails, and every later write fails too, since nothing more reaches
// the disk of a dead process.
type crashStore struct {
	*serve.FileStore
	dir   string
	point string // "after-append", "mid-append" or "before-log-reset"
	at    int    // the write of the point's kind that crashes, from 0

	mu     sync.Mutex
	writes int
	dead   bool
}

var errCrashed = errors.New("crashed")

// crashes counts one write of kind (append or checkpoint) and reports
// whether it is the one the drill crashes at.
func (c *crashStore) crashes(checkpoint bool) bool {
	if checkpoint != (c.point == "before-log-reset") {
		return false
	}
	c.writes++
	return c.writes > c.at
}

func (c *crashStore) Append(tenant string, rec []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errCrashed
	}
	if !c.crashes(false) {
		return c.FileStore.Append(tenant, rec)
	}
	c.dead = true
	if c.point == "after-append" {
		if err := c.FileStore.Append(tenant, rec); err != nil {
			return err
		}
		return errCrashed
	}
	// mid-append: half the record reaches the log.
	f, err := os.OpenFile(filepath.Join(c.dir, tenant+".pplog"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		return err
	}
	return errCrashed
}

func (c *crashStore) Save(tenant string, ckpt []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errCrashed
	}
	if !c.crashes(true) {
		return c.FileStore.Save(tenant, ckpt)
	}
	// The checkpoint is durable; the log reset never happens.
	c.dead = true
	if err := snapshot.NewStore(filepath.Join(c.dir, tenant+".ppsnap")).SaveBytes(ckpt); err != nil {
		return err
	}
	return errCrashed
}

// TestCrashRestartDrill crashes the service at each point of a commit
// that touches the disk — after a batch's log append but before its
// ack, halfway through an append (a torn tail), and between a
// checkpoint's write and its log reset — then restarts on the same
// directory and retries every key. Whatever was logged before the
// crash must fold exactly once, seqs must continue where the acks
// left off, the commit log must stay continuous, and the served
// aggregate must equal a local refold of that log.
func TestCrashRestartDrill(t *testing.T) {
	const tenant, keys = "drill", 10
	published := map[string][]byte{}
	var order []string
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		published[key] = encodeSnap(i%3, i)
		order = append(order, key)
	}
	for _, tc := range []struct {
		point string
		at    int
	}{{"after-append", 4}, {"mid-append", 4}, {"before-log-reset", 2}} {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			store := &crashStore{FileStore: fs, dir: dir, point: tc.point, at: tc.at}
			s := newServer(t, serve.Config{Store: store, BatchMax: 1})
			s.Start()
			before := map[string]uint64{}
			var maxSeq uint64
			for _, key := range order {
				snap, err := snapshot.Decode(published[key])
				if err != nil {
					t.Fatal(err)
				}
				if ack, _, err := s.Ingest(context.Background(), tenant, key, snap); err == nil {
					before[key] = ack.Seq
					maxSeq = max(maxSeq, ack.Seq)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if !store.dead {
				t.Fatalf("the drill never reached its crash point")
			}
			if len(before) == 0 || len(before) == keys {
				t.Fatalf("%d of %d keys acked before the crash; the drill needs some of each", len(before), keys)
			}

			logPath := filepath.Join(dir, tenant+".pplog")
			crashed, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if tc.point == "before-log-reset" {
				// Without the previous checkpoint to fall back to,
				// recovery must read the new one and skip the log
				// records it already covers.
				if err := os.Remove(filepath.Join(dir, tenant+".ppsnap.prev")); err != nil {
					t.Fatal(err)
				}
			}

			// Restart on the same directory and retry every key.
			fs2, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			if reopened, err := os.Stat(logPath); err != nil {
				t.Fatal(err)
			} else if torn := tc.point == "mid-append"; torn != (reopened.Size() < crashed.Size()) {
				t.Errorf("reopen took the log from %d to %d bytes; the torn tail must be cut off, and nothing else",
					crashed.Size(), reopened.Size())
			}
			s2 := newServer(t, serve.Config{Store: fs2})
			s2.Start()
			ts := httptest.NewServer(s2.Handler())
			defer ts.Close()
			client := &serve.Client{BaseURL: ts.URL}
			for _, key := range order {
				res, err := client.Publish(context.Background(), tenant, key, published[key])
				if err != nil {
					t.Fatalf("retry %s: %v", key, err)
				}
				switch seq, acked := before[key]; {
				case acked && (!res.Ack.Deduped || res.Ack.Seq != seq):
					t.Errorf("retry of %s (acked seq %d before the crash) = %+v, want a dedupe", key, seq, res.Ack)
				case !acked && !res.Ack.Deduped && res.Ack.Seq <= maxSeq:
					t.Errorf("fresh %s after the restart got seq %d, not above the %d acked before it", key, res.Ack.Seq, maxSeq)
				}
			}

			log, err := client.FetchLog(context.Background(), tenant)
			if err != nil {
				t.Fatal(err)
			}
			if len(log) != keys {
				t.Errorf("commit log holds %d entries for %d keys", len(log), keys)
			}
			seen := map[string]bool{}
			want := profile.NewSnapshot()
			for i, e := range log {
				if e.Seq != uint64(i+1) {
					t.Errorf("commit log entry %d has seq %d: not continuous", i, e.Seq)
				}
				if seen[e.Key] {
					t.Errorf("key %s folded twice", e.Key)
				}
				seen[e.Key] = true
				one, err := snapshot.Decode(published[e.Key])
				if err != nil {
					t.Fatalf("log names unknown key %q", e.Key)
				}
				want.MergeSnapshot(one)
			}
			got, fp, err := client.Fetch(context.Background(), tenant)
			if err != nil {
				t.Fatal(err)
			}
			if fp != fmt.Sprintf("%016x", want.Fingerprint()) || !bytes.Equal(got, snapshot.Encode(want)) {
				t.Errorf("served aggregate %s is not the refold %016x of its commit log", fp, want.Fingerprint())
			}

			// A second restart recovers the same state.
			fs3, err := serve.OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			s3 := newServer(t, serve.Config{Store: fs3})
			if _, fp3 := s3.AggregateBytes(tenant); fp3 != fp {
				t.Errorf("second restart serves %s, want %s", fp3, fp)
			}
			if log3 := s3.CommitLog(tenant); len(log3) != len(log) {
				t.Errorf("second restart recovers %d log entries, want %d", len(log3), len(log))
			}
		})
	}
}
