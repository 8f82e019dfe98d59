package main

// The benchmark's vocabulary: workloads, metrics, units, directions and
// regression bounds. BENCHMARK.json at the repository root is the
// machine-readable copy of this file; bench_test.go fails when the two
// disagree or when a run emits a name neither of them lists.

// workloadInfo describes one workload for the README-style listing.
type workloadInfo struct {
	Name string
	Op   string // what one "op" of ops_per_s / cpu_us_per_op is
	Why  string
}

// workloads is the fixed workload table, in suite order.
var workloads = []workloadInfo{
	{"study", "page", "core.RunStudy as cmd/wsrepro calls it (4 crawls, dispatch path, spool + live fold) then Report, at 150 publishers x 15 pages: the paper's workload; the page plane does nearly all the work."},
	{"store_crawl", "page", "study with Options.Store=true and nothing else changed: every page double-written (JSONL spool + colstore segments), sealed and dir-synced per checkpoint. The gap to study is the store's write cost."},
	{"store_read", "query", "Cold colstore.OpenRead -> first Dataset cycles, then a seeded query mix through colstore.NewHandler from one client, over a sealed crawl-0 store: replay and the cached query engine; no page plane."},
	{"fabric", "page", "Crawl 0 through core.StartFabricCoordinator + 2 core.RunFabricWorker over loopback TCP, then Finalize: real page loads over wire JSON frames. Same pages as one study crawl, so the gap is the fabric."},
	{"ws_serve", "64B echo", "World-less webserver echo endpoint under loadgen.Run on 2 connections: 64 B echoes (per-message cost), 16 KiB echoes (per-byte cost), dial-echo-close churn (connection set-up). Loopback only."},
}

// direction says which way a metric is good.
type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

// metricInfo is one catalogue entry. Bound is the share of the
// baseline's median by which the metric may get worse before -compare
// calls it a regression; 0 means "informational, never gated".
type metricInfo struct {
	Name   string
	Unit   string
	Better direction
	Bound  float64
}

// endToEnd lists the metrics every workload emits on an untraced run.
// They are the ones a user of the workload sees whatever it does: how
// long set-up took, how many ops finished per second, what an op cost in
// CPU, and how much memory the process needed. One op is a crawled page
// on study/store_crawl/fabric, a query on store_read and a 64 B echo on
// ws_serve (see workloads[].Op), so on the crawl workloads ops_per_s is
// pages per second and cpu_us_per_op is CPU per page.
var endToEnd = []metricInfo{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayer lists the metrics every workload emits on a traced run: the
// workload-specific user-visible numbers first (they cannot sit in
// endToEnd because they do not exist on every workload), then one block
// per package. A metric whose layer does no work on a workload reads 0
// there. Bounds here are used by -compare only.
var perLayer = []metricInfo{
	// Workload-specific user-visible numbers.
	{"allocs_per_page", "count", lower, 0.08},
	{"disk_bytes_per_page", "B", lower, 0.05},
	{"open_ms_p50", "ms", lower, 0.20},
	{"open_ms_p90", "ms", lower, 0.25},
	{"query_us_p50", "us", lower, 0.20},
	{"query_us_p99", "us", lower, 0.25},
	{"echo_us_p50", "us", lower, 0.20},
	{"echo_us_p99", "us", lower, 0.25},
	{"mb_per_s", "MB/s", higher, 0.20},
	{"conns_per_s", "1/s", higher, 0.20},

	// Set-up layers.
	{"webgen.world_build_ms", "ms", lower, 0},
	{"filterlist.parse_ms", "ms", lower, 0},

	// Page plane (study, store_crawl; fabric's workers are opaque).
	{"webserver.fetch_us_per_page", "us", lower, 0},
	{"webserver.fetches_per_page", "count", lower, 0},
	{"webserver.fetch_bytes_per_page", "B", lower, 0},
	{"browser.visit_self_us_per_page", "us", lower, 0},
	{"htmlparse.parse_us_per_page", "us", lower, 0},
	{"script.decode_us_per_page", "us", lower, 0},
	{"browser.other_us_per_page", "us", lower, 0},
	{"browser.requests_per_page", "count", lower, 0},
	{"browser.sockets_per_page", "count", lower, 0},
	{"inclusion.build_us_per_page", "us", lower, 0},
	{"labeler.tag_us_per_page", "us", lower, 0},
	{"filterlist.cache_hit_ratio", "ratio", higher, 0},
	{"analysis.record_us_per_page", "us", lower, 0},
	{"analysis.record_other_us_per_page", "us", lower, 0},
	{"analysis.encode_us_per_page", "us", lower, 0},
	{"analysis.spool_bytes_per_page", "B", lower, 0},
	{"analysis.fold_us_per_page", "us", lower, 0},
	{"analysis.merge_ms", "ms", lower, 0},
	{"analysis.report_ms", "ms", lower, 0},

	// Durable plane.
	{"dispatch.append_us_per_page", "us", lower, 0},
	{"dispatch.flush_us_per_page", "us", lower, 0},
	{"dispatch.checkpoint_ms", "ms", lower, 0},
	{"dispatch.checkpoints", "count", lower, 0},
	{"dispatch.retries", "count", lower, 0},
	{"colstore.ingest_us_per_page", "us", lower, 0},
	{"colstore.seal_ms", "ms", lower, 0},
	{"colstore.seals", "count", lower, 0},
	{"colstore.dir_syncs", "count", lower, 0},
	{"colstore.segment_bytes_per_page", "B", lower, 0},
	{"colstore.open_us_per_record", "us", lower, 0},
	{"colstore.segments_at_open", "count", lower, 0},
	{"colstore.open_allocs_per_record", "count", lower, 0},
	{"colstore.snapshot_ms", "ms", lower, 0},
	{"colstore.query_us.tables", "us", lower, 0},
	{"colstore.query_us.chains", "us", lower, 0},
	{"colstore.query_us.sites", "us", lower, 0},
	{"colstore.query_us.labels", "us", lower, 0},
	{"colstore.query_us.storestats", "us", lower, 0},
	{"colstore.query_allocs", "count", lower, 0},

	// Fabric.
	{"fabric.run_batch_self_us_per_page", "us", lower, 0},
	{"fabric.emit_us_per_page", "us", lower, 0},
	{"fabric.wire_encode_us_per_page", "us", lower, 0},
	{"fabric.wire_decode_us_per_page", "us", lower, 0},
	{"fabric.wire_decode_allocs", "count", lower, 0},
	{"fabric.worker_idle_ratio", "ratio", lower, 0},
	{"fabric.heartbeats", "count", lower, 0},
	{"fabric.finalize_ms", "ms", lower, 0},

	// Serving plane.
	{"wsproto.dial_us_p50", "us", lower, 0},
	{"wsproto.allocs_per_conn", "count", lower, 0},
	{"wsproto.bytes_per_conn", "B", lower, 0},
	{"wsproto.write_us_64", "us", lower, 0},
	{"wsproto.read_wait_us_64", "us", lower, 0},
	{"wsproto.write_us_16k", "us", lower, 0},
	{"wsproto.allocs_per_msg", "count", lower, 0},
	{"webserver.ws_handshakes", "count", lower, 0},
	{"webserver.conns_shed", "count", lower, 0},

	// Cross-checks and the trace's own books.
	{"core.pages_per_s_1worker", "pages/s", higher, 0},
	{"obs.crawl_visit_us_per_page", "us", lower, 0},
	{"obs.crawl_record_us_per_page", "us", lower, 0},
	{"obs.crawl_commit_us_per_page", "us", lower, 0},
	{"trace.unaccounted_us_per_page", "us", lower, 0},
	{"trace.overhead_ratio", "ratio", lower, 0},
}

// catalogue returns the metric list a run with the given trace flag
// must emit, every name exactly once.
func catalogue(traced bool) []metricInfo {
	if traced {
		return perLayer
	}
	return endToEnd
}
