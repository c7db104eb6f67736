package main

import (
	"bytes"
	"encoding/json"
)

// Host sizing is fixed, not derived from the machine, so numbers are
// comparable across hosts: the reference host has two cores.
const (
	benchProcs   = 2 // GOMAXPROCS of every measuring process
	benchShards  = 2 // parsim shards of the sharded workloads
	benchPeers   = 2 // distsim peers
	benchClients = 2 // closed-loop HTTP clients
	ringNodes    = 3 // stardustd nodes in the serving ring
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// setupSamples is how many fresh child processes set a workload up in
// one run; setup_s is their median.
const setupSamples = 3

// WorkloadDef names one workload and records why it was chosen.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse (0 for per-layer metrics,
// which have none).
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDefs = []WorkloadDef{
	{"clos_solo", "K=8 Clos, 1 shard, 6.25ms at load 0.4: sim kernel + netsim queue/pipe + fabric.Net cell path do all the work; parsim barriers cost nothing"},
	{"clos_sharded", "same Spec on 2 shards: same simulated work, so the delta to clos_solo is parsim windows, barriers and cross-shard mailboxes"},
	{"perm_transport", "Fig 10a K=4 permutation over the per-link fabric: tcp endpoints + StardustNet VOQ/credit/reassembly dominate, raw cell path is a minority"},
	{"graph_record_replay", "K=8 sshuffle Record then Replay: GraphNet multipath instead of the Clos, STREC1 telemetry written, read back and compared"},
	{"dist_2peer", "K=4 on 2 shards over 2 loopback TCP peers: distsim wire codec, lock-step window barrier and mail encode/decode dominate, simulation is small"},
	{"serve_ring_submit", "3-node ring, 2 closed-loop clients submit distinct runs until readable: cluster forward + RunQueue admission + engine run + peer fetch"},
	{"serve_ring_hit", "3-node ring, 2 closed-loop keep-alive clients read one primed key: pure mgmt byte-serving, bypasses cluster, engine and every simulator layer"},
}

// endToEndDefs are what a user of the system sees. Every workload
// reports every one of them: a repetition is one run for the simulator
// workloads, one batch of distinct submissions for serve_ring_submit and
// one load slice (normalised to hitSliceRequests) for serve_ring_hit;
// a work unit is a delivered fabric cell, or an HTTP request.
//
// The bounds are the widest allowed because the reference host is noisy:
// ten back-to-back runs of unchanged code spread (quartile to quartile)
// by 4-12% of the median, once by 21%, even after the host probe's
// correction (README.md has the measurements), and the spread has to
// stay inside the bound.
var endToEndDefs = []MetricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"work_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayerDefs are the cost ladder: prefix = module. A workload that
// does not reach a layer reports 0 for that layer's metrics.
var perLayerDefs = []MetricDef{
	{"topo.build_ms", "ms", lower, 0},
	{"topo.nodes", "count", lower, 0},
	{"topo.links", "count", lower, 0},

	{"sim.ns_per_event", "ns", lower, 0},
	{"sim.allocs_per_event", "allocs", lower, 0},
	{"sim.events", "count", lower, 0},
	{"sim.events_per_cell_hop", "count", lower, 0},
	{"sim.events_per_s_core", "1/s", higher, 0},

	{"netsim.ns_per_hop", "ns", lower, 0},
	{"netsim.allocs_per_hop", "allocs", lower, 0},
	{"netsim.transport_ns_per_pkt", "ns", lower, 0},
	{"netsim.sharded_transport_ns_per_pkt", "ns", lower, 0},
	{"netsim.cells_per_mb", "count", lower, 0},
	{"netsim.credits_per_mb", "count", lower, 0},
	{"netsim.voq_drops", "count", lower, 0},
	{"netsim.reasm_timeouts", "count", lower, 0},

	{"tcp.flow_gbps_min", "Gb/s", higher, 0},
	{"tcp.fig10a_util_pct", "%", higher, 0},

	{"fabric.cell_hops", "count", lower, 0},
	{"fabric.hops_per_cell", "count", lower, 0},
	{"fabric.ns_per_cell_hop", "ns", lower, 0},
	{"fabric.self_ns_per_cell_hop", "ns", lower, 0},
	{"fabric.allocs_per_cell", "allocs", lower, 0},
	{"fabric.build_ms", "ms", lower, 0},
	{"fabric.drops", "count", lower, 0},
	{"fabric.codec_ns_per_mail", "ns", lower, 0},

	{"parsim.windows", "count", lower, 0},
	{"parsim.ns_per_empty_window", "ns", lower, 0},
	{"parsim.imbalance", "ratio", lower, 0},
	{"parsim.speedup_vs_1", "ratio", higher, 0},
	{"parsim.overhead_share", "ratio", lower, 0},

	{"distsim.windows", "count", lower, 0},
	{"distsim.mail_frames", "count", lower, 0},
	{"distsim.mail_entries", "count", lower, 0},
	{"distsim.raw_bytes", "count", lower, 0},
	{"distsim.wire_bytes", "count", lower, 0},
	{"distsim.barrier_mean_us", "us", lower, 0},
	{"distsim.barrier_p99_us", "us", lower, 0},
	{"distsim.join_ms", "ms", lower, 0},
	{"distsim.slowdown_vs_local", "ratio", lower, 0},

	{"telemetry.capture_ns_per_window", "ns", lower, 0},
	{"telemetry.windows", "count", lower, 0},
	{"telemetry.stream_bytes", "count", lower, 0},
	{"telemetry.bytes_per_window", "count", lower, 0},
	{"telemetry.record_overhead_share", "ratio", lower, 0},
	{"telemetry.read_mb_per_s", "MB/s", higher, 0},
	{"telemetry.compare_ms", "ms", lower, 0},
	{"telemetry.divergent_windows", "count", lower, 0},

	{"engine.run_overhead_us", "us", lower, 0},
	{"engine.emit_bytes", "count", lower, 0},

	{"mgmt.cachekey_ns", "ns", lower, 0},
	{"mgmt.submit_local_us", "us", lower, 0},
	{"mgmt.queue_wait_p50_us", "us", lower, 0},
	{"mgmt.run_p50_us", "us", lower, 0},
	{"mgmt.hit_local_ns", "ns", lower, 0},
	{"mgmt.hit_handler_us", "us", lower, 0},
	{"mgmt.hit_p50_us", "us", lower, 0},
	{"mgmt.hit_p99_us", "us", lower, 0},
	{"mgmt.hit_p999_us", "us", lower, 0},
	{"mgmt.hit_max_ms", "ms", lower, 0},
	{"mgmt.submit_p50_us", "us", lower, 0},
	{"mgmt.submit_p99_us", "us", lower, 0},
	{"mgmt.cache_hits", "count", higher, 0},
	{"mgmt.remote_hits", "count", higher, 0},
	{"mgmt.rejected", "count", lower, 0},
	{"mgmt.http_errors", "count", lower, 0},

	{"cluster.owner_ns", "ns", lower, 0},
	{"cluster.forward_us", "us", lower, 0},
	{"cluster.fetch_us", "us", lower, 0},
	{"cluster.forwards", "count", lower, 0},
	{"cluster.fallbacks", "count", lower, 0},
	{"cluster.retries", "count", lower, 0},
	{"cluster.forward_share", "ratio", lower, 0},
	{"cluster.ring_share_max", "ratio", lower, 0},

	{"loadgen.client_self_us", "us", lower, 0},

	{"bench.host_slowdown", "ratio", lower, 0},
	{"bench.trace_overhead_pct", "%", lower, 0},
	{"bench.ladder_explained_share", "ratio", higher, 0},
}

// benchmarkJSON renders the root BENCHMARK.json from the definitions
// above (`go run ./bench -spec`), so the file and the program cannot
// name different metrics; a test holds the committed file to it.
func benchmarkJSON() ([]byte, error) {
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
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []WorkloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
