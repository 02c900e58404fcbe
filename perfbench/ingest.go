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
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/eval"
	"pathprof/internal/instr"
	"pathprof/internal/netprof"
	"pathprof/internal/planir"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
	"pathprof/internal/vm"
	"pathprof/internal/workloads"
)

const (
	// ingestTailP is the fixed tail percentile of publishes and reads.
	ingestTailP = 95
	// ingestTenant is the large-aggregate tenant: its snapshot is
	// about 85 KB, so every group commit's decode and re-encode of the
	// whole aggregate dominates the ack.
	ingestTenant = "vpr"
	// ingestVariants is how many distinct emitter profiles the writer
	// publishes, each from a run under its own LCG seed.
	ingestVariants = 8
	// warmupKey is the set-up publish of variant 0.
	warmupKey = "warmup"
)

// The reader's requests, cycled in a seeded order.
var readPaths = []struct{ kind, path string }{
	{"plans", "/v1/plans/" + ingestTenant + "?profiler=PPP"},
	{"hot", "/v1/hot/" + ingestTenant},
	{"profile", "/v1/profiles/" + ingestTenant},
}

// ingestEnv is a running in-process pppd plus the snapshots the
// writer publishes.
type ingestEnv struct {
	dir      string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	data     [][]byte // encoded emitter snapshots
	plans    map[string]*instr.Plan
	overhead []float64 // modeled PPP overhead of each emitter run, %
}

// setupIngest stages the tenant's program, profiles it under
// ingestVariants seeded values of its LCG seed global with the PPP
// plans, and starts a server on loopback with a file store.
func setupIngest(seed uint64) (*ingestEnv, error) {
	w, _ := workloads.ByName(ingestTenant)
	st, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{}
	env.plans, err = st.PlansFor("PPP", instr.PPP(), instr.PlaceSpanning)
	if err != nil {
		return nil, err
	}
	gi, ok := st.Prog.GlobalIndex["seed"]
	if !ok {
		return nil, fmt.Errorf("%s: no seed global", w.Name)
	}
	r := &rng{s: seed ^ 0x1f2e3d4c5b6a7988}
	for k := 0; k < ingestVariants; k++ {
		prog := *st.Prog
		prog.GlobalInit = append([]int64(nil), st.Prog.GlobalInit...)
		prog.GlobalInit[gi] = int64(r.next() & (1<<30 - 1))
		run, err := vm.Run(&prog, vm.Options{CollectEdges: true, CollectPaths: true, Plans: env.plans})
		if err != nil {
			return nil, fmt.Errorf("%s variant %d: %w", w.Name, k, err)
		}
		env.data = append(env.data, snapshot.Encode(run.Snapshot()))
		env.overhead = append(env.overhead, 100*run.Overhead())
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	env.dir, err = os.MkdirTemp(buildDir, "ingest-")
	if err != nil {
		return nil, err
	}
	store, err := serve.OpenFileStore(env.dir)
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv, err = serve.New(serve.Config{
		Store:    store,
		Registry: telemetry.NewRegistry(1),
		Program: func(t string) (string, bool) {
			if t == ingestTenant {
				return w.Source, true
			}
			return "", false
		},
	})
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	// Warm-up: one publish creates the aggregate every read needs, and
	// the first plan request stages the program server-side.
	client := &serve.Client{BaseURL: env.base}
	if _, err := client.Publish(context.Background(), ingestTenant, warmupKey, env.data[0]); err != nil {
		env.close()
		return nil, err
	}
	if _, _, err := get(http.DefaultClient, env.base+readPaths[0].path); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops the HTTP server and the committer, waits for both, and
// removes the store directory.
func (env *ingestEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if env.hs != nil {
		_ = env.hs.Shutdown(ctx)
		<-env.served
	}
	if env.srv != nil {
		_ = env.srv.Shutdown(ctx)
	}
	http.DefaultClient.CloseIdleConnections()
	if env.dir != "" {
		_ = os.RemoveAll(env.dir)
	}
}

// get fetches url and returns the body and response header; any
// status but 200 is an error.
func get(c *http.Client, url string) ([]byte, http.Header, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, resp.Header, nil
}

// publishOp is one writer operation and what checking it needs.
type publishOp struct {
	key     string
	variant int
	ms      float64
	traced  bool
	ack     serve.Ack
	err     error
}

// readOp is one reader operation; profile reads keep the served
// fingerprint for the refold check.
type readOp struct {
	kind   string
	ms     float64
	traced bool
	fp     string
	err    error
}

// runIngest is the ingest workload: one closed-loop writer publishing
// emitter snapshots and one closed-loop reader, against one server.
func runIngest(cfg config) (metrics, tally, error) {
	var env *ingestEnv
	setup, err := timeSetup(ingestSetupReps, func() (func(), error) {
		e, err := setupIngest(cfg.seed)
		env = e
		if err != nil {
			return nil, err
		}
		return e.close, nil
	})
	if err != nil {
		return nil, tally{}, err
	}
	defer env.close()

	// The operation lists: the writer's variant per publish, the
	// reader's request kinds in seeded rounds of all three.
	const listLen = 1 << 14
	r := &rng{s: cfg.seed}
	wlist := make([]int, listLen)
	var lines []string
	for i := range wlist {
		wlist[i] = r.intn(ingestVariants)
		lines = append(lines, fmt.Sprintf("w %d", wlist[i]))
	}
	var rlist []int
	for len(rlist) < listLen {
		rlist = append(rlist, r.perm(len(readPaths))...)
	}
	for _, k := range rlist {
		lines = append(lines, "r "+readPaths[k].kind)
	}
	fmt.Printf("ingest: op list %s (seed %d)\n", opListHash(lines), cfg.seed)

	minOps := minSamples(ingestTailP)
	t0 := time.Now()
	wtr := newTracer(true, "writer", t0)
	rtr := newTracer(true, "reader", t0)
	var (
		pubs     []publishOp
		reads    []readOp
		writeSec float64
		wg       sync.WaitGroup
		done     atomic.Bool
	)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		client := &serve.Client{BaseURL: env.base}
		for i := 0; i < listLen; i++ {
			if i >= minOps && msSince(t0)/1000 >= cfg.seconds {
				break
			}
			op := publishOp{key: fmt.Sprintf("s%d-%d", cfg.seed, i), variant: wlist[i], traced: cfg.trace && i%2 == 1}
			var tr *tracer
			if op.traced {
				tr = wtr
			}
			start := time.Now()
			tr.beginOp(op.key)
			tr.begin(layerServe + ".publish")
			res, err := client.Publish(ctx, ingestTenant, op.key, env.data[op.variant])
			tr.end()
			tr.end()
			op.ms = msSince(start)
			op.ack, op.err = res.Ack, err
			pubs = append(pubs, op)
		}
		writeSec = msSince(t0) / 1000
	}()
	go func() {
		defer wg.Done()
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		for j := 0; j < listLen; j++ {
			if done.Load() && j >= minOps {
				break
			}
			op := readOp{kind: readPaths[rlist[j]].kind, traced: cfg.trace && j%2 == 1}
			var tr *tracer
			if op.traced {
				tr = rtr
			}
			tr.beginOp(fmt.Sprintf("r%d", j))
			op.ms, op.fp, op.err = readOnce(client, env.base, rlist[j], tr)
			tr.end()
			reads = append(reads, op)
		}
	}()
	wg.Wait()

	// The refold is checking, not an operation: its spans feed the
	// snapshot and profile call timings but not the op breakdown.
	vtr := newTracer(cfg.trace, "verify", t0)
	t, refoldErr := verifyIngest(ctx, env, pubs, reads, vtr)
	if refoldErr != nil {
		return nil, t, refoldErr
	}
	fmt.Printf("ingest: %d publishes, %d reads, tail p%d\n", len(pubs), len(reads), ingestTailP)

	var pubLat, trPub, untrPub []float64
	for _, p := range pubs {
		pubLat = append(pubLat, p.ms)
		if p.traced {
			trPub = append(trPub, p.ms)
		} else {
			untrPub = append(untrPub, p.ms)
		}
	}
	m := metrics{}
	if cfg.trace {
		hist := func(name string) float64 {
			h, err := scrapeHist(env.base, name)
			if err != nil || h.Count == 0 {
				return 0
			}
			return h.Sum / float64(h.Count)
		}
		ackUS := hist("ppp_serve_ack_e2e_us")
		m.set("snapshot.decode_ms", "ms", callMedian(layerSnapshot+".decode", rtr, vtr))
		m.set("snapshot.encode_ms", "ms", callMedian(layerSnapshot+".encode", rtr))
		m.set("profile.merge_ms", "ms", callMedian(layerProfile+".merge", vtr))
		m.set("profile.fingerprint_ms", "ms", callMedian(layerProfile+".fingerprint", rtr, vtr))
		m.set("serve.queue_wait_us", "us", hist("ppp_serve_queue_wait_us"))
		m.set("serve.commit_merge_us", "us", hist("ppp_serve_commit_merge_us"))
		m.set("serve.store_save_us", "us", hist("ppp_serve_store_save_us"))
		m.set("serve.ack_e2e_us", "us", ackUS)
		m.set("serve.batch_mean", "count", hist("ppp_serve_commit_batch_size"))
		agg, _ := env.srv.AggregateBytes(ingestTenant)
		m.set("serve.aggregate_bytes", "count", float64(len(agg)))
		m.set("ingest.transport_ms", "ms", mean(pubLat)-ackUS/1000)
		for _, rp := range readPaths {
			var xs []float64
			for _, op := range reads {
				if op.kind == rp.kind && op.traced {
					xs = append(xs, op.ms)
				}
			}
			m.set("read."+rp.kind+"_ms", "ms", median(xs))
		}
		read := latency{tailP: ingestTailP}
		for _, op := range reads {
			read.add(op.ms)
		}
		if err := read.report(m, "read."); err != nil {
			return nil, t, err
		}
		m.set("trace.overhead_frac", "ratio", median(trPub)/median(untrPub)-1)
		m.set("trace.unattributed_frac", "ratio", unattributed(append(wtr.breakdown(), rtr.breakdown()...)))
		return m, t, writeTrace(cfg, wtr, rtr, vtr)
	}

	acked := 0
	for _, p := range pubs {
		if p.err == nil {
			acked++
		}
	}
	lat := latency{samples: pubLat, tailP: ingestTailP}
	acc, err := aggregateAccuracy(env)
	if err != nil {
		return nil, t, err
	}
	m.set("setup_s", "s", setup)
	m.set("ops_per_s", "1/s", float64(acked)/writeSec)
	if err := lat.report(m, ""); err != nil {
		return nil, t, err
	}
	m.set("ppp_overhead_pct", "%", mean(env.overhead))
	m.set("ppp_accuracy_pct", "%", acc)
	return m, t, nil
}

// readOnce performs one reader request and checks what came back:
// plan IR must decode to the fingerprint the server stated, hot paths
// must parse and be non-empty, and a fetched aggregate must decode to
// its stated fingerprint and re-encode to the same bytes. Only the
// request itself is timed.
func readOnce(c *http.Client, base string, kind int, tr *tracer) (ms float64, fp string, err error) {
	start := time.Now()
	tr.begin(layerServe + ".get")
	body, hdr, err := get(c, base+readPaths[kind].path)
	tr.end()
	ms = msSince(start)
	if err != nil {
		return ms, "", err
	}
	switch readPaths[kind].kind {
	case "plans":
		tr.begin(layerPlanIR + ".decode")
		prog, err := planir.Decode(body)
		tr.end()
		if err != nil {
			return ms, "", err
		}
		if got := fmt.Sprintf("%016x", prog.Fingerprint()); got != hdr.Get("X-PPP-Plan-Fingerprint") {
			return ms, "", fmt.Errorf("plans: body fingerprint %s, header %s", got, hdr.Get("X-PPP-Plan-Fingerprint"))
		}
		if err := prog.Validate(); err != nil {
			return ms, "", fmt.Errorf("plans: %w", err)
		}
	case "hot":
		var exp []netprof.Expectation
		if err := json.Unmarshal(body, &exp); err != nil {
			return ms, "", fmt.Errorf("hot: %w", err)
		}
		if len(exp) == 0 {
			return ms, "", errors.New("hot: no expectations")
		}
	case "profile":
		fp = hdr.Get("X-PPP-Fingerprint")
		tr.begin(layerSnapshot + ".decode")
		snap, err := snapshot.Decode(body)
		tr.end()
		if err != nil {
			return ms, fp, err
		}
		tr.begin(layerProfile + ".fingerprint")
		got := fmt.Sprintf("%016x", snap.Fingerprint())
		tr.end()
		if got != fp {
			return ms, fp, fmt.Errorf("profile: body fingerprint %s, header %s", got, fp)
		}
		tr.begin(layerSnapshot + ".encode")
		again := snapshot.Encode(snap)
		tr.end()
		if !bytes.Equal(again, body) {
			return ms, fp, errors.New("profile: aggregate does not re-encode to the served bytes")
		}
	}
	return ms, fp, nil
}

// verifyIngest refolds the tenant's commit log from the published
// snapshots and checks the served aggregate, every ack and every
// fetched aggregate against it, as pppload -verify does. A mismatch
// fails the operation it belongs to.
func verifyIngest(ctx context.Context, env *ingestEnv, pubs []publishOp, reads []readOp, tr *tracer) (tally, error) {
	var t tally
	client := &serve.Client{BaseURL: env.base}
	log, err := client.FetchLog(ctx, ingestTenant)
	if err != nil {
		return t, fmt.Errorf("fetch log: %w", err)
	}
	_, servedFP, err := client.Fetch(ctx, ingestTenant)
	if err != nil {
		return t, fmt.Errorf("fetch aggregate: %w", err)
	}

	tr.beginOp("refold")
	defer tr.end()
	published := make([]*profile.Snapshot, len(env.data))
	for i, data := range env.data {
		tr.begin(layerSnapshot + ".decode")
		published[i], err = snapshot.Decode(data)
		tr.end()
		if err != nil {
			return t, fmt.Errorf("decode published snapshot: %w", err)
		}
	}
	variantOf := map[string]int{warmupKey: 0}
	for _, p := range pubs {
		variantOf[p.key] = p.variant
	}
	// prefix[fp] is the longest commit-log prefix folding to fp.
	prefix := map[string]int{}
	agg := profile.NewSnapshot()
	for i, e := range log {
		v, ok := variantOf[e.Key]
		if !ok {
			return t, fmt.Errorf("commit log holds unknown key %q", e.Key)
		}
		tr.begin(layerProfile + ".merge")
		agg.MergeSnapshot(published[v])
		tr.end()
		tr.begin(layerProfile + ".fingerprint")
		prefix[fmt.Sprintf("%016x", agg.Fingerprint())] = i + 1
		tr.end()
	}
	if got := fmt.Sprintf("%016x", agg.Fingerprint()); got != servedFP {
		return t, fmt.Errorf("served aggregate %s, local refold of %d commits %s", servedFP, len(log), got)
	}

	for _, p := range pubs {
		err := p.err
		if err == nil {
			seq := int(p.ack.Seq)
			n, ok := prefix[p.ack.Fingerprint]
			switch {
			case seq < 1 || seq > len(log) || log[seq-1].Key != p.key:
				err = fmt.Errorf("publish %s: ack seq %d does not name its key in the commit log", p.key, seq)
			case !ok || n < seq:
				err = fmt.Errorf("publish %s: ack fingerprint %s is no refold prefix covering seq %d", p.key, p.ack.Fingerprint, seq)
			}
		}
		if err != nil {
			fmt.Printf("ingest: FAIL %v\n", err)
		}
		t.record(err)
	}
	for _, op := range reads {
		err := op.err
		if err == nil && op.kind == "profile" {
			if _, ok := prefix[op.fp]; !ok {
				err = fmt.Errorf("profile read: served fingerprint %s is no refold prefix", op.fp)
			}
		}
		if err != nil {
			fmt.Printf("ingest: FAIL %v\n", err)
		}
		t.record(err)
	}
	return t, nil
}

// aggregateAccuracy is the PPP hot-path accuracy of the served
// aggregate: its merged counter tables against its merged exact paths.
func aggregateAccuracy(env *ingestEnv) (float64, error) {
	agg := env.srv.Aggregate(ingestTenant)
	if agg == nil {
		return 0, errors.New("no served aggregate")
	}
	var rs []*eval.Routine
	for _, n := range sortedKeys(env.plans) {
		plan := env.plans[n]
		truth, err := resolvePaths(plan.D, n, agg.Paths[n])
		if err != nil {
			return 0, err
		}
		rs = append(rs, &eval.Routine{Name: n, Plan: plan, Table: agg.Tables[n], Truth: truth})
	}
	ev := eval.New(rs)
	return 100 * eval.Accuracy(ev.HotPaths(hotTheta), ev.EstimatedProfile(hotTheta)), nil
}

// resolvePaths rebinds a decoded path profile, whose edges carry only
// their IDs, to the DAG the plan was built on.
func resolvePaths(d *cfg.DAG, fn string, pp *profile.PathProfile) (*profile.PathProfile, error) {
	out := profile.NewPathProfile(fn)
	if pp == nil {
		return out, nil
	}
	for _, pc := range pp.Paths() {
		path := make(cfg.Path, len(pc.Path))
		for i, e := range pc.Path {
			if e.ID < 0 || e.ID >= len(d.Edges) {
				return nil, fmt.Errorf("%s: aggregate path edge %d outside the DAG", fn, e.ID)
			}
			path[i] = d.Edges[e.ID]
		}
		out.Add(path, pc.Count)
	}
	return out, nil
}

// scrapeHist reads one histogram from the server's /metrics.
func scrapeHist(base, name string) (*telemetry.HistScrape, error) {
	body, _, err := get(http.DefaultClient, base+"/metrics")
	if err != nil {
		return nil, err
	}
	h, ok := telemetry.ScrapeHistogram(string(body), name)
	if !ok {
		return nil, fmt.Errorf("metrics: no %s", name)
	}
	return h, nil
}
