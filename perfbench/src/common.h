// Types shared by the benchmark's workloads and its entry point.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "sweep/bench_json.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_run";  ///< artifacts of this run
  std::string commit = "unknown";      ///< stamped into the host fingerprint
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< requests (svc) or simulated runs (sim)
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< why `correct` is false
  /// End-to-end metrics, under the names BENCHMARK.json declares.
  std::vector<Metric> end_to_end;
  /// The same figures under their workload-specific names
  /// (svc_decisions_per_s, sim_runs_per_s, ...), printed for readers.
  std::vector<Metric> named;
  /// Per-layer metrics (traced run only).
  std::vector<Metric> per_layer;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void alias(const std::string& name, double v, const std::string& unit) {
    named.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
};

/// The replay rows (replay.cpp): ns per operation of each layer's
/// public functions, fed the message kinds the workloads send.
struct ReplayRows {
  double codec_encode_ns = 0;
  double codec_decode_ns = 0;
  double wire_build_ns_per_frame = 0;
  double wire_read_ns_per_frame = 0;
  double dedup_fresh_ns = 0;
  double link_process_datagram_ns = 0;
  double svc_submit_reply_ns = 0;
  double svc_snap_resp_decode_ns = 0;
  double event_queue_ns_per_op = 0;
  double arena_ns_per_alloc = 0;
  double procset_intersect_w1_ns = 0;
  double procset_intersect_w16_ns = 0;
};

/// Runs every replay row. `frames_per_datagram` packs the wire and
/// link rows the way the measured service packed its datagrams;
/// `link_port` is a free loopback port the link row binds.
ReplayRows run_replay_rows(double frames_per_datagram, std::uint16_t link_port,
                           SpanLog* spans);
void report_replay_rows(const ReplayRows& r, Outcome* out);

/// What tells numbers from two machines, compilers or builds apart.
struct HostFingerprint {
  std::string cpu;
  std::int64_t nproc = 0;
  std::string compiler, build_type, commit;
};
HostFingerprint host_fingerprint(const Options& opt);
/// Writes `h` as one JSON object value.
void write_host_fingerprint(const HostFingerprint& h,
                            saf::sweep::JsonWriter* w);

Outcome run_svc_workload(const Options& opt, bool chaos, SpanLog* spans);
Outcome run_sim_sweep(const Options& opt, SpanLog* spans);
/// Recomputes the pinned reference digests of the sim workloads (the
/// constants at the top of sim_workloads.cpp), one per line.
std::string compute_pins();

/// The end-to-end metric names every workload reports, in order.
inline const std::vector<std::pair<std::string, std::string>>& e2e_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"completed_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

/// Every per-layer metric a traced run reports, in order. A layer a
/// workload bypasses reads 0 there.
inline const std::vector<std::pair<std::string, std::string>>&
per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // sim engine and util
      {"sim.setup_us_per_run", "us"},
      {"sim.run_ns_per_msg", "ns"},
      {"sim.msgs_per_event", "count"},
      {"sim.events_per_run", "count"},
      {"sim.event_queue.ns_per_op", "ns"},
      {"util.arena.ns_per_alloc", "ns"},
      {"util.procset.ns_per_intersect_w1", "ns"},
      {"util.procset.ns_per_intersect_w16", "ns"},
      // core protocols
      {"core.kset.us_per_run", "us"},
      {"core.two_wheels.us_per_run", "us"},
      {"core.phibar.us_per_run", "us"},
      {"core.kset_n1024.ms_per_run", "ms"},
      {"core.decision_ticks_p50", "ticks"},
      {"sim.n1024.setup_ms_per_run", "ms"},
      {"sim.n1024.run_ns_per_msg", "ns"},
      {"sim.n1024.msgs_per_event", "count"},
      // fd and sweep
      {"fd.queries_per_run", "count"},
      {"sweep.parallel_efficiency", "ratio"},
      {"sweep.run_p99_over_p50", "ratio"},
      {"sim_failed_frac", "ratio"},
      {"sim_rate_retention", "ratio"},
      // rt link, per decision per node
      {"rt.link.frames_per_decision", "count"},
      {"rt.link.acks_per_decision", "count"},
      {"rt.link.datagrams_per_decision", "count"},
      {"rt.link.frames_per_datagram", "count"},
      {"rt.link.syscalls_per_decision", "count"},
      {"rt.link.retransmits_per_decision", "count"},
      {"rt.link.dups_per_decision", "count"},
      {"rt.link.useful_frame_frac", "ratio"},
      {"rt.link.window_stalls", "count"},
      {"rt.link.abandoned", "count"},
      // rt replay rows
      {"rt.codec.encode_ns", "ns"},
      {"rt.codec.decode_ns", "ns"},
      {"rt.wire.build_ns_per_frame", "ns"},
      {"rt.wire.read_ns_per_frame", "ns"},
      {"rt.dedup.fresh_ns", "ns"},
      {"rt.link.process_datagram_ns", "ns"},
      // rt node loop and the ledger
      {"rt.node.user_us_per_decision", "us"},
      {"rt.node.sys_us_per_decision", "us"},
      {"rt.node.cpu_util", "ratio"},
      {"rt.node.vcsw_per_decision", "count"},
      {"rt.node.ivcsw_per_s", "1/s"},
      {"rt.ledger_ns_per_decision", "ns"},
      {"rt.ledger_explained_frac", "ratio"},
      // svc
      {"svc.proposals_per_batch", "count"},
      {"svc.batched_instance_frac", "ratio"},
      {"svc.client.cpu_us_per_reply", "us"},
      {"svc.client.resubmits", "count"},
      {"svc.events_per_decision", "count"},
      {"svc.heartbeats_per_decision", "count"},
      {"svc.result_kb_per_node", "KB"},
      {"svc.contract_check_ms", "ms"},
      {"svc.snapshot_adopted", "count"},
      {"svc.snap_requests", "count"},
      {"svc.snaps_served", "count"},
      {"svc.wire.snap_resp_decode_ns", "ns"},
      {"svc.wire.submit_reply_ns", "ns"},
      {"svc_failed_frac", "ratio"},
      {"svc_rate_retention", "ratio"},
      {"svc_reply_p99_ms", "ms"},
      // fault injection, latency sampling, tracing
      {"fault.drop_frac", "ratio"},
      {"latency_samples", "count"},
      {"latency_tail_pct", "pct"},
      {"trace.overhead_frac", "ratio"},
  };
  return names;
}

}  // namespace perfbench
