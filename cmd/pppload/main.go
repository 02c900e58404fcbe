// Command pppload is the load generator and drill client for pppd:
// it profiles a built-in workload once, then has N concurrent
// emitters publish the resulting PPSNAP snapshot to the service with
// idempotent keys, jittered exponential-backoff retries, and deadline
// propagation — the client half of the chaos drill.
//
// Usage:
//
//	pppload -addr http://127.0.0.1:9523 -workload mcf -emitters 8 -count 4
//	pppload -addr http://127.0.0.1:9523 -workload mcf -verify
//	pppload -addr http://127.0.0.1:9523 -workload mcf -exp latency -json bench.json
//
// With -verify, pppload fetches the tenant's commit log and merged
// aggregate afterward and refolds the published snapshot once per
// committed entry, asserting the server's fingerprint is bit-identical
// to the local fold — acked snapshots are all in the aggregate, each
// exactly once, regardless of retries, drops, and backpressure along
// the way. It also reports client-observed vs server-observed latency
// (the skew is transport, queueing the server never timed, and chaos
// delays).
//
// With -exp latency, pppload scrapes the server's
// ppp_serve_ack_e2e_us histogram after the run and reports p50/p95/p99
// ack latency plus achieved updates/sec; -json writes a
// benchguard-compatible report (all headline metrics lower-is-better)
// seeding the service-side bench trajectory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/instr"
	"pathprof/internal/profile"
	"pathprof/internal/serve"
	"pathprof/internal/snapshot"
	"pathprof/internal/telemetry"
	"pathprof/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "http://127.0.0.1:9523", "pppd base URL")
	workload := flag.String("workload", "mcf", "built-in workload to profile and publish")
	tenant := flag.String("tenant", "", "tenant name (default: the workload name)")
	emitters := flag.Int("emitters", 8, "concurrent emitter goroutines")
	count := flag.Int("count", 4, "snapshots each emitter publishes")
	attempts := flag.Int("attempts", 8, "max attempts per publish")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline for the whole load run")
	seed := flag.Uint64("seed", 1, "backoff jitter seed")
	verifyFlag := flag.Bool("verify", false, "refold the commit log locally and assert fingerprint identity")
	exp := flag.String("exp", "", "experiment mode: \"latency\" reports ack-latency quantiles from the server's histograms")
	jsonOut := flag.String("json", "", "with -exp latency: write a benchguard-compatible JSON report to this path")
	flag.Parse()

	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(os.Stderr, "pppload: "+format+"\n", a...)
		return 1
	}

	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}
	w, ok := workloads.ByName(*workload)
	if !ok {
		return fail("unknown workload %q", *workload)
	}
	if *tenant == "" {
		*tenant = w.Name
	}

	// Profile the workload once; every emitter publishes this snapshot
	// under distinct idempotency keys, so the expected aggregate is
	// the snapshot folded once per acked key.
	staged, err := core.NewPipeline(w.Name, w.Source).Stage()
	if err != nil {
		return fail("stage %s: %v", w.Name, err)
	}
	pr, err := staged.ProfileWith("PP", instr.PP(), nil)
	if err != nil {
		return fail("profile %s: %v", w.Name, err)
	}
	snap := pr.Run.Snapshot()
	data := snapshot.Encode(snap)
	fmt.Printf("pppload: %s snapshot %016x (%d bytes), %d emitters x %d\n",
		w.Name, snap.Fingerprint(), len(data), *emitters, *count)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *exp != "" && *exp != "latency" {
		return fail("unknown -exp mode %q (want \"latency\")", *exp)
	}

	type outcome struct {
		acks     int
		deduped  int
		attempts int
		rttUS    int64 // summed round-trip time of successful attempts
		err      error
	}
	results := make([]outcome, *emitters)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *emitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &serve.Client{
				BaseURL:     *addr,
				MaxAttempts: *attempts,
				Backoff:     serve.Backoff{Seed: *seed},
			}
			for j := 0; j < *count; j++ {
				key := fmt.Sprintf("e%d-s%d", i, j)
				res, err := client.Publish(ctx, *tenant, key, data)
				if err != nil {
					results[i].err = err
					return
				}
				results[i].acks++
				results[i].attempts += res.Attempts
				if res.Ack.Deduped {
					results[i].deduped++
				}
				if n := len(res.Timings); n > 0 {
					results[i].rttUS += res.Timings[n-1].RTT.Microseconds()
				}
			}
		}(i)
	}
	wg.Wait()

	elapsed := time.Since(start)
	var acks, deduped, tries, failures int
	var clientRTTUS int64
	for i := range results {
		acks += results[i].acks
		deduped += results[i].deduped
		tries += results[i].attempts
		clientRTTUS += results[i].rttUS
		if results[i].err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "pppload: emitter %d: %v\n", i, results[i].err)
		}
	}
	fmt.Printf("pppload: %d acked (%d deduped) over %d attempts in %v; %d emitter failure(s)\n",
		acks, deduped, tries, elapsed.Round(time.Millisecond), failures)

	if *exp == "latency" {
		if code := latencyReport(ctx, *addr, w.Name, acks, clientRTTUS, elapsed, *jsonOut); code != 0 {
			return code
		}
	}

	if *verifyFlag {
		client := &serve.Client{BaseURL: *addr}
		log, err := client.FetchLog(ctx, *tenant)
		if err != nil {
			return fail("fetch log: %v", err)
		}
		_, serverFP, err := client.Fetch(ctx, *tenant)
		if err != nil {
			return fail("fetch aggregate: %v", err)
		}
		// Every commit is one of this run's identical publishes: parse
		// the bytes once and fold them once per log entry, as the
		// service folds uploads.
		up, err := snapshot.Parse(data)
		if err != nil {
			return fail("parse own snapshot: %v", err)
		}
		want := profile.NewSnapshot()
		for range log {
			up.FoldInto(want)
		}
		localFP := fmt.Sprintf("%016x", want.Fingerprint())
		if localFP != serverFP {
			return fail("fingerprint mismatch: server %s, local refold of %d commits %s", serverFP, len(log), localFP)
		}
		fmt.Printf("pppload: verified: %d committed snapshots refold to server fingerprint %s\n", len(log), serverFP)

		// Client-vs-server latency skew: the gap between what clients
		// waited on their final (successful) attempts and what the
		// server measured admission-to-ack is transport, handler-side
		// queueing outside the measured stages, and chaos delays.
		if hist, err := scrapeAckHist(ctx, *addr); err == nil && acks > 0 && hist.Count > 0 {
			clientMean := float64(clientRTTUS) / float64(acks)
			serverMean := hist.Sum / float64(hist.Count)
			fmt.Printf("pppload: latency skew: client mean rtt %s vs server mean ack-e2e %s (skew %s)\n",
				telemetry.FormatUS(clientMean), telemetry.FormatUS(serverMean),
				telemetry.FormatUS(clientMean-serverMean))
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// scrapeAckHist fetches /metrics and reconstructs the server's
// ack-e2e latency histogram.
func scrapeAckHist(ctx context.Context, addr string) (*telemetry.HistScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: server %d", resp.StatusCode)
	}
	hist, ok := telemetry.ScrapeHistogram(string(body), "ppp_serve_ack_e2e_us")
	if !ok {
		return nil, fmt.Errorf("metrics: no ppp_serve_ack_e2e_us histogram in exposition")
	}
	return hist, nil
}

// latencyReport is the -exp latency epilogue: quantiles from the
// server's ack-e2e histogram, achieved throughput, the client-side
// view, and optionally a benchguard-compatible JSON report. Every
// headline metric is lower-is-better, matching benchguard's drift
// direction.
func latencyReport(ctx context.Context, addr, workload string, acks int, clientRTTUS int64, elapsed time.Duration, jsonOut string) int {
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(os.Stderr, "pppload: "+format+"\n", a...)
		return 1
	}
	hist, err := scrapeAckHist(ctx, addr)
	if err != nil {
		return fail("latency experiment: %v", err)
	}
	p50, p95, p99 := hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99)
	upsec := float64(acks) / elapsed.Seconds()
	fmt.Printf("pppload: ack latency (server, n=%d): p50 %s  p95 %s  p99 %s\n",
		hist.Count, telemetry.FormatUS(p50), telemetry.FormatUS(p95), telemetry.FormatUS(p99))
	fmt.Printf("pppload: throughput: %.1f updates/sec (%d acks in %v)\n",
		upsec, acks, elapsed.Round(time.Millisecond))
	if acks > 0 {
		fmt.Printf("pppload: client mean rtt of acked publishes: %s\n",
			telemetry.FormatUS(float64(clientRTTUS)/float64(acks)))
	}
	if jsonOut == "" {
		return 0
	}
	if acks == 0 {
		return fail("latency experiment: no acks, refusing to write a baseline")
	}
	report := struct {
		Workloads []string           `json:"workloads"`
		TotalSecs float64            `json:"total_seconds"`
		Headline  map[string]float64 `json:"headline"`
	}{
		Workloads: []string{workload},
		TotalSecs: elapsed.Seconds(),
		Headline: map[string]float64{
			"serve_ack_p50_us":    p50,
			"serve_ack_p95_us":    p95,
			"serve_ack_p99_us":    p99,
			"serve_us_per_update": 1e6 / upsec,
		},
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fail("latency experiment: encode report: %v", err)
	}
	if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
		return fail("latency experiment: %v", err)
	}
	fmt.Printf("pppload: wrote latency report to %s\n", jsonOut)
	return 0
}
