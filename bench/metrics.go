package main

// metrics.go declares every metric the benchmark prints. BENCHMARK.json
// at the checkout's root lists the same names; bench_test.go holds the
// two together, and holds both to what a run actually prints.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of icdbd sees, measured with tracing off. Every
// workload reports every one: each run boots, serves, is killed and
// recovers, and a workload whose mix has no writes takes the write
// latency from a short burst of estimates after its windows. Bound is
// the share of the parent's median by which a change may worsen the
// metric. The bounds are three times the worst spread between quartiles
// that ten runs on ten seeds showed on the 2-core box this was written
// on (README.md, "Noise"), capped at the contract's 0.25: tighter ones
// would reject changes that did nothing.
var endToEnd = []metricDecl{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"write_latency_p50_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"server_rss_peak_mb", "MB", "lower", 0.20},
	{"ttfq_s", "s", "lower", 0.25},
	{"ttfull_s", "s", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"snapshot_bytes_per_row", "B", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's output. These have no bound: they say
// where an end-to-end change came from.
var perLayer = func() []metricDecl {
	lower := func(unit string, names ...string) (out []metricDecl) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var d []metricDecl
	d = append(d, lower("us", "wire.roundtrip_p50_us", "wire.client_self_us", "wire.server_self_us", "wire.dial_handshake_us")...)
	d = append(d, lower("ns", "wire.self_ns_per_row")...)
	d = append(d, lower("count", "wire.frames_per_op")...)
	d = append(d, lower("B", "wire.bytes_per_op")...)
	d = append(d, lower("ns", "wire.frame_write_ns", "wire.frame_read_ns")...)
	d = append(d, lower("us", "cql.lex_us", "cql.parse_us", "cql.compile_us", "cql.exec_us", "cql.self_us")...)
	d = append(d, lower("ns", "cql.self_ns_per_row")...)
	d = append(d, lower("B", "cql.out_bytes_per_op")...)
	d = append(d, lower("count", "cql.allocs_per_op")...)
	d = append(d, lower("us", "icdb.call_us", "icdb.self_us")...)
	d = append(d, lower("ns", "icdb.ns_per_row")...)
	d = append(d, lower("count", "icdb.allocs_per_op")...)
	d = append(d, lower("B", "icdb.bytes_per_op")...)
	d = append(d, lower("us", "icdb.point_us", "icdb.estimate_us", "icdb.pareto_us")...)
	d = append(d, lower("ms", "icdb.open_ms", "icdb.first_query_ms")...)
	d = append(d, lower("ns", "relstore.get_ns", "relstore.scan_ns_per_row", "relstore.select_ns_per_row", "relstore.upsert_ns")...)
	d = append(d, lower("us", "relstore.journal.write_us", "relstore.journal.sync_us")...)
	d = append(d, lower("count", "relstore.journal.syncs_per_write")...)
	d = append(d, lower("B", "relstore.journal.bytes_per_write", "relstore.journal.storage_bytes_per_write")...)
	d = append(d, lower("count", "relstore.journal.pass_writes", "relstore.journal.pass_syncs", "relstore.journal.compactions")...)
	d = append(d, lower("ms", "relstore.journal.compact_ms")...)
	d = append(d, lower("B", "relstore.journal.compact_bytes")...)
	d = append(d, lower("us", "relstore.journal.replay_us_per_record")...)
	d = append(d, lower("ms", "relstore.snapshot.open_eager_ms", "relstore.snapshot.open_serial_ms")...)
	d = append(d, metricDecl{Name: "relstore.snapshot.parallel_speedup", Unit: "x", Better: "higher"})
	d = append(d, lower("ms", "relstore.snapshot.open_lazy_ms", "relstore.snapshot.hydrate_all_ms")...)
	d = append(d, lower("ns", "relstore.snapshot.decode_ns_per_row")...)
	d = append(d, lower("count", "relstore.snapshot.decode_allocs_per_row")...)
	d = append(d, lower("ms", "relstore.snapshot.save_ms")...)
	d = append(d, lower("ns", "relstore.snapshot.encode_ns_per_row")...)
	d = append(d, lower("us", "iif.parse_us", "expand.expand_us", "eqn.format_us")...)
	d = append(d, lower("count", "expand.allocs_per_op")...)
	d = append(d, lower("ms", "icdbd.listen_ms")...)
	d = append(d, lower("s", "icdbd.eager_ttfq_s")...)
	for k := opKind(0); k < numKinds; k++ {
		d = append(d, lower("us", "op."+k.String()+"_p50_us")...)
	}
	d = append(d, lower("frac", "trace.overhead_frac", "trace.self_sum_residual_frac", "noise.window_spread_frac")...)
	return d
}()

// exactCounts are metrics that must read the same on two runs of one
// commit with one seed: they count, they do not time.
var exactCounts = map[string]bool{
	"snapshot_bytes_per_row":           true,
	"relstore.journal.bytes_per_write": true,
	"relstore.journal.syncs_per_write": true,
	"wire.frames_per_op":               true,
	"wire.bytes_per_op":                true,
	"cql.out_bytes_per_op":             true,
	"relstore.journal.pass_writes":     true,
}
