package main

// metricDef names one reported metric and its unit; the tables below
// mirror BENCHMARK.json, which a test keeps in step.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"ppp_overhead_pct", "%"},
	{"ppp_accuracy_pct", "%"},
}

// perLayer is what every traced run reports; a workload reports 0 for
// a layer it does not call.
var perLayer = []metricDef{
	{"core.stage_ms", "ms"},
	{"lower.compile_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"vm.ns_per_step", "ns"},
	{"vm.steps", "count"},
	{"instr.plan_ms", "ms"},
	{"eval.ms", "ms"},
	{"suite.allocs_per_op", "count"},
	{"suite.alloc_mb_per_op", "MB"},
	{"compile.build_ms", "ms"},
	{"compile.validate_us", "us"},
	{"instr.sac_rounds", "count"},
	{"instr.hashed_routines", "count"},
	{"verify.proof_ms", "ms"},
	{"planir.lower_ms", "ms"},
	{"planir.bytes", "count"},
	{"replan.allocs_per_op", "count"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"profile.merge_ms", "ms"},
	{"profile.fingerprint_ms", "ms"},
	{"serve.queue_wait_us", "us"},
	{"serve.commit_merge_us", "us"},
	{"serve.store_save_us", "us"},
	{"serve.ack_e2e_us", "us"},
	{"serve.batch_mean", "count"},
	{"serve.aggregate_bytes", "count"},
	{"ingest.transport_ms", "ms"},
	{"read.p50_ms", "ms"},
	{"read.tail_ms", "ms"},
	{"read.plans_ms", "ms"},
	{"read.hot_ms", "ms"},
	{"read.profile_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}
