package main

// The metrics and workloads this program emits. BENCHMARK.json at the
// repository root declares the same names, units and directions; the
// self-test fails when the two disagree.

import (
	"encoding/json"
	"os"
)

type decl struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

var workloadWhy = [][2]string{
	{"warm_hit", "image resident in the client-proxy cache: all work is xdr, sunrpc, proxy dispatch, cache index and bank read; tunnel, journal and origin idle"},
	{"cold_scan", "sequential scan 4x larger than the cache over the tunnel: every READ misses, evicts and reaches the origin; the hit path idles"},
	{"write_flush", "journaled write-back absorb, then Proxy.Flush through tunnel and server proxy, origin compared byte for byte: the write direction of the same layers"},
	{"wan_clone", "paper 4.3 VM cloning over a 30 ms, 1.75 MB/s tunnelled link with meta-data, file channel and page cache: sleep-dominated control that a CPU saving must not move"},
}

var endToEndDecl = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_vs_pingpong", "ratio", "higher", 0.25},
	{"p50_vs_pingpong", "ratio", "lower", 0.25},
	{"bulk_vs_pingpong", "ratio", "higher", 0.25},
	{"cpu_vs_pingpong", "ratio", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.03},
	{"alloc_bytes_per_op", "B/op", "lower", 0.03},
	{"origin_calls_per_op_plus1", "1/op", "lower", 0.03},
	{"upstream_frames_per_op_plus1", "1/op", "lower", 0.03},
	{"upstream_bytes_per_user_byte_plus1", "B/B", "lower", 0.02},
}

var perLayerDecl = []decl{
	// probe: the layer's public functions timed in isolation
	{name: "xdr.read3res_encode_ns", unit: "ns", better: "lower"},
	{name: "xdr.read3res_decode_ns", unit: "ns", better: "lower"},
	{name: "xdr.write3args_decode_ns", unit: "ns", better: "lower"},
	{name: "sunrpc.echo_ops_per_s", unit: "1/s", better: "higher"},
	{name: "sunrpc.echo_rtt_p50_us", unit: "us", better: "lower"},
	{name: "sunrpc.echo_allocs_per_op", unit: "1/op", better: "lower"},
	{name: "tunnel.stream_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "tunnel.allocs_per_frame", unit: "1/frame", better: "lower"},
	{name: "tunnel.echo_rtt_p50_us", unit: "us", better: "lower"},
	{name: "memfs.read_us", unit: "us", better: "lower"},
	{name: "memfs.write_us", unit: "us", better: "lower"},
	{name: "nfs3.server_read_us", unit: "us", better: "lower"},
	{name: "cache.get_hit_us", unit: "us", better: "lower"},
	{name: "cache.put_clean_evict_us", unit: "us", better: "lower"},
	{name: "cache.put_dirty_us", unit: "us", better: "lower"},
	{name: "cache.put_dirty_disk_us", unit: "us", better: "lower"},
	{name: "cache.flush_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "bufpool.get_put_ns", unit: "ns", better: "lower"},
	{name: "qos.admit_ns", unit: "ns", better: "lower"},
	{name: "qos.admit_contended_ns", unit: "ns", better: "lower"},
	{name: "backend.nfs3be.read_us", unit: "us", better: "lower"},
	{name: "backend.nfs3be.write_us", unit: "us", better: "lower"},
	{name: "backend.replbe1.read_us", unit: "us", better: "lower"},
	{name: "backend.objstore.read_us", unit: "us", better: "lower"},
	{name: "backend.objstore.write_us", unit: "us", better: "lower"},
	{name: "pagecache.get_hit_ns", unit: "ns", better: "lower"},
	{name: "filechan.fetch_gzip_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "meta.zero_map_mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "filecache.read_at_us", unit: "us", better: "lower"},
	{name: "obs.span_ns", unit: "ns", better: "lower"},
	{name: "cachean.tap_ns", unit: "ns", better: "lower"},
	// count: public counters read around the workload
	{name: "origin.calls_per_op", unit: "1/op", better: "lower"},
	{name: "tunnel.frames_per_op", unit: "1/op", better: "lower"},
	{name: "tunnel.bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "wan.link_bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "proxy.echo_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_op", unit: "1/op", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.journal_fsyncs_per_write", unit: "1/op", better: "lower"},
	{name: "cache.journal_bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "cache.write_backs_per_op", unit: "1/op", better: "lower"},
	{name: "bufpool.miss_ratio", unit: "ratio", better: "lower"},
	{name: "pagecache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "proxy.zero_filter_reads_per_op", unit: "1/op", better: "higher"},
	{name: "proxy.file_cache_reads_per_op", unit: "1/op", better: "higher"},
	{name: "proxy.wan_rpcs_per_clone_cold", unit: "1/clone", better: "lower"},
	{name: "proxy.wan_rpcs_per_clone_warm", unit: "1/clone", better: "lower"},
	{name: "client.ops_per_s", unit: "1/s", better: "higher"},
	{name: "client.op_p50_us", unit: "us", better: "lower"},
	{name: "client.mib_per_s", unit: "MiB/s", better: "higher"},
	{name: "process.cpu_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "pingpong.ops_per_s", unit: "1/s", better: "higher"},
	{name: "pingpong.rtt_p50_us", unit: "us", better: "lower"},
	{name: "pingpong.cpu_s_per_gib", unit: "s/GiB", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.write_p99_us", unit: "us", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "process.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "process.gc_cpu_fraction", unit: "ratio", better: "lower"},
	// trace: the traced window
	{name: "clone.cold_s", unit: "s", better: "lower"},
	{name: "clone.warm_s", unit: "s", better: "lower"},
	{name: "clone.session_flush_s", unit: "s", better: "lower"},
	{name: "clone.config_s", unit: "s", better: "lower"},
	{name: "clone.memstate_s", unit: "s", better: "lower"},
	{name: "clone.disk_boot_s", unit: "s", better: "lower"},
	{name: "clone.redo_write_s", unit: "s", better: "lower"},
	{name: "trace.ops", unit: "count", better: "higher"},
	{name: "trace.client_mean_us", unit: "us", better: "lower"},
	{name: "trace.client_self_us", unit: "us", better: "lower"},
	{name: "trace.hop0_transport_us", unit: "us", better: "lower"},
	{name: "trace.hop0_self_us", unit: "us", better: "lower"},
	{name: "trace.hop0_block_cache_us", unit: "us", better: "lower"},
	{name: "trace.hop0_meta_us", unit: "us", better: "lower"},
	{name: "trace.tunnel_transport_us", unit: "us", better: "lower"},
	{name: "trace.hop1_self_us", unit: "us", better: "lower"},
	{name: "trace.origin_transport_us", unit: "us", better: "lower"},
	{name: "trace.origin_fs_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 20

// printSpec writes the BENCHMARK.json these declarations correspond to.
func printSpec() error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloadWhy {
		spec.Workloads = append(spec.Workloads, workload{w[0], w[1]})
	}
	for _, d := range endToEndDecl {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerDecl {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// newPerLayer returns every per-layer metric at zero, so that a layer
// that does no work in a workload reads 0 there (the "must not move"
// column of the README made visible) and nothing is ever missing.
func newPerLayer() metrics { return newMetrics(perLayerDecl) }
