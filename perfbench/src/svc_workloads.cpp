// svc-steady and svc-chaos: a live loopback cluster of decision-service
// nodes (svc::run_server under rt::run_cluster) driven by a closed-loop
// client tier on one thread of this process.
//
// The client thread calls svc::run_client_tier for consecutive windows,
// each on its own slot range (the servers dedup on (slot, req_seq), so
// a window never reuses a slot). Window 0 times set-up: launch to the
// first reply. Windows 1..kWindows share the measured --seconds and
// give the rate retention (last window over first), which is how the
// service's slowdown with run length shows.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "metric_math.h"
#include "rt/chaos.h"
#include "rt/cluster.h"
#include "svc/client.h"
#include "svc/server.h"
#include "sweep/bench_json.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using saf::Time;
using saf::rt::ClusterConfig;
using saf::rt::ClusterResult;
using saf::rt::NodeConfig;
using saf::svc::ClientRunResult;
using saf::svc::ClientTierConfig;

constexpr int kN = 3;
constexpr int kT = 1;
constexpr int kK = 2;
constexpr int kClients = 4;  ///< closed-loop clients, one request each
constexpr int kWindows = 3;  ///< measured client windows
constexpr Time kSetupWindowMs = 1000;
/// Untraced runs time set-up on this many short clean clusters before
/// the measured one and report the median: one probe's launch to first
/// reply ranges 2-8 ms with how the host schedules the forked nodes.
/// (The measured cluster's own set-up is not among them: under
/// svc-chaos loss a dropped first Submit adds a 20 ms retransmit
/// timeout to it.)
constexpr int kSetupProbes = 15;
/// A probe's client window; only its first reply is timed.
constexpr Time kProbeWindowMs = 100;
/// The svc-chaos victim. A seeded victim would make the workload
/// bimodal (the victim serves one or two of the four clients when the
/// kill lands), so the chaos seed is drawn from the master seed until
/// its schedule picks this node.
constexpr saf::ProcessId kChaosVictim = 1;

/// Percentile of `latency_tail_ms`. svc-chaos reports the p99, which the
/// 20 ms retransmit timer sets. On svc-steady the p99 falls where the
/// nodes' CPU saturates late in the run; six runs on a 4-vCPU VM spread
/// 0.21 (one read 8.0 ms, the rest 4.7-5.6 ms), so the bounded tail
/// there is the p90 and the p99 is reported per layer.
double tail_pct(bool chaos, std::size_t samples) {
  const double p = tail_percentile(samples);
  return chaos ? p : std::min(p, 90.0);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Loopback ports for one cluster: endpoints base..base+n+slots-1.
std::uint16_t port_for(std::uint64_t seed, int salt) {
  return static_cast<std::uint16_t>(
      40'000 + ((seed * 7 + static_cast<std::uint64_t>(salt)) % 40) * 200);
}

struct Window {
  double start_s = 0;
  ClientRunResult res;
};

/// One node life as its wrapped runner recorded it (traced run).
struct Life {
  double start_s = 0, end_s = 0;
  double user_s = 0, sys_s = 0;
  double nvcsw = 0, nivcsw = 0;
  double faults_dropped = 0;  ///< frame attempts the fault hook ate
};

struct ClusterRun {
  ClusterResult res;
  double launch_s = 0;
  std::vector<Window> windows;  ///< [0] is the set-up window
  double client_cpu_s = 0;
  double rss_mb = 0;
  std::vector<saf::sweep::FlatJson> nodes;  ///< final lives' result JSON
  double result_bytes = 0;                  ///< summed over final lives
  std::vector<Life> lives;                  ///< traced only
  double contract_check_s = 0;

  /// Launch to the first reply, or -1. Every client of window 0
  /// submits at the window's start and latencies are in completion
  /// order, so the first latency ends at the first reply.
  double setup_s() const {
    const Window& w = windows.front();
    if (w.res.latencies_ms.empty()) return -1;
    return (w.start_s - launch_s) + w.res.latencies_ms.front() / 1e3;
  }
  double sum(const std::string& key) const {
    double s = 0;
    for (const auto& nj : nodes) {
      const auto it = nj.find(key);
      if (it != nj.end()) s += it->second;
    }
    return s;
  }
  double max(const std::string& key) const {
    double m = 0;
    for (const auto& nj : nodes) {
      const auto it = nj.find(key);
      if (it != nj.end()) m = std::max(m, it->second);
    }
    return m;
  }
};

ClusterConfig base_config(const Options& opt, bool chaos, int salt,
                          Time run_for_ms, int windows,
                          const std::string& dir) {
  ClusterConfig cfg;
  cfg.n = kN;
  cfg.t = kT;
  cfg.k = kK;
  cfg.protocol = "svc";
  cfg.seed = saf::util::derive_seed(opt.seed, static_cast<std::uint64_t>(salt));
  cfg.base_port = port_for(opt.seed, salt);
  cfg.run_for_ms = run_for_ms;
  cfg.linger_ms = 300;
  cfg.out_dir = dir;
  cfg.svc_client_slots = kClients * windows;
  cfg.contract_checker = saf::svc::check_service_contract;
  if (chaos) {
    // One SIGKILL/restart of a seeded victim 40% into the measured span
    // (jittered by up to 200 ms, so the kill always hits the same
    // client window), and 5% frame loss on every server link.
    const Time measured = run_for_ms - kSetupWindowMs;
    cfg.chaos.kills = 1;
    cfg.chaos.window_start_ms = kSetupWindowMs + measured * 2 / 5;
    cfg.chaos.window_span_ms = 200;
    cfg.chaos.restart_delay_ms = 400;
    cfg.chaos.faults = "drop=0.05";
    for (std::uint64_t i = 0;; ++i) {
      cfg.chaos.seed = saf::util::derive_seed(cfg.seed, i) | 1;
      const auto kills = saf::rt::make_kill_schedule(cfg.chaos, cfg.n, 0);
      if (kills.front().victim == kChaosVictim) break;
    }
  }
  return cfg;
}

/// Forks the cluster, runs the client windows against it, reaps, and
/// reads the nodes' result files back. `window_ms[0]` is the set-up
/// window.
ClusterRun run_cluster_once(ClusterConfig cfg,
                            const std::vector<Time>& window_ms,
                            SpanLog* spans, int parent) {
  ClusterRun run;
  fs::remove_all(cfg.out_dir);
  fs::create_directories(cfg.out_dir);

  // Every node life runs svc::run_service_node (the body of
  // svc::run_server) until the cluster's common end: a restarted life
  // gets what is left of the budget, not a fresh one, so all nodes stop
  // together. Traced, each life also times itself and records its
  // rusage and the fault-dropped frame count the result file omits;
  // the parent files the spans once the cluster is reaped.
  const double cluster_end = mono_s() + static_cast<double>(cfg.run_for_ms) / 1e3;
  const bool traced = spans != nullptr;
  cfg.node_runner = [cluster_end, traced](const NodeConfig& base) {
    NodeConfig nc = base;
    const double left_ms = (cluster_end - mono_s()) * 1e3;
    nc.run_for_ms = std::clamp<Time>(static_cast<Time>(left_ms), 500,
                                     base.run_for_ms);
    const double t0 = mono_s();
    const saf::svc::ServerResult res = saf::svc::run_service_node(nc);
    const double t1 = mono_s();
    if (traced) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%.9f %.9f %.6f %.6f %ld %ld %llu\n", t0,
                    t1, tv_s(ru.ru_utime), tv_s(ru.ru_stime), ru.ru_nvcsw,
                    ru.ru_nivcsw,
                    static_cast<unsigned long long>(
                        res.link_stats.faults_dropped));
      std::ofstream(nc.result_path + ".life." + std::to_string(getpid()))
          << buf;
    }
    return res.ok ? 0 : 1;
  };
  if (traced) {
    cfg.contract_checker = [&run](const ClusterConfig& c, ClusterResult* r) {
      const double t0 = mono_s();
      saf::svc::check_service_contract(c, r);
      run.contract_check_s = mono_s() - t0;
    };
  }

  ClientTierConfig tier;
  tier.n = cfg.n;
  tier.base_port = cfg.base_port;
  tier.clients = kClients;
  tier.total_slots = cfg.svc_client_slots;
  tier.seed = cfg.seed;

  run.launch_s = mono_s();
  std::thread clients([&] {
    const double cpu0 = thread_cpu_s();
    for (std::size_t w = 0; w < window_ms.size(); ++w) {
      ClientTierConfig tw = tier;
      tw.first_slot = kClients * static_cast<int>(w);
      tw.run_for_ms = window_ms[w];
      Window win;
      win.start_s = mono_s();
      try {
        win.res = saf::svc::run_client_tier(tw);
      } catch (const std::exception&) {
        win.res.ok = false;  // reported by check_run
      }
      if (spans != nullptr) {
        spans->add("svc.run_client_tier", parent, win.start_s, mono_s());
      }
      run.windows.push_back(std::move(win));
    }
    run.client_cpu_s = thread_cpu_s() - cpu0;
  });
  // Joined on every path: the thread writes into `run`.
  struct Joiner {
    std::thread& t;
    ~Joiner() {
      if (t.joinable()) t.join();
    }
  } joiner{clients};
  const double c0 = mono_s();
  run.res = saf::rt::run_cluster(cfg);
  const double c1 = mono_s();
  clients.join();

  rusage ch{};
  getrusage(RUSAGE_CHILDREN, &ch);
  run.rss_mb = static_cast<double>(ch.ru_maxrss) / 1024.0;

  for (saf::ProcessId id = 0; id < cfg.n; ++id) {
    const std::string path = saf::rt::cluster_node_result_path(cfg, id);
    try {
      run.nodes.push_back(saf::sweep::load_json_numbers(path));
      run.result_bytes += static_cast<double>(fs::file_size(path));
    } catch (const std::exception&) {
      // A node that never wrote its result fails the contract check.
    }
  }

  if (spans != nullptr) {
    const int cs = spans->add("rt.run_cluster", parent, c0, c1);
    if (run.contract_check_s > 0) {
      // The contract check is the launcher's last step.
      spans->add("svc.check_service_contract", cs, c1 - run.contract_check_s,
                 c1);
    }
    for (const auto& entry : fs::directory_iterator(cfg.out_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.find(".life.") == std::string::npos) continue;
      Life l;
      std::ifstream in(entry.path());
      if (!(in >> l.start_s >> l.end_s >> l.user_s >> l.sys_s >> l.nvcsw >>
            l.nivcsw >> l.faults_dropped)) {
        continue;
      }
      spans->add("svc.run_server", cs, l.start_s, l.end_s);
      run.lives.push_back(l);
    }
  }
  return run;
}

std::vector<Time> windows_for(int seconds) {
  std::vector<Time> w{kSetupWindowMs};
  const Time each = static_cast<Time>(seconds) * 1000 / kWindows;
  for (int i = 0; i < kWindows; ++i) w.push_back(each);
  return w;
}

/// Runs the measured cluster: set-up window, then kWindows windows over
/// `seconds`, servers outliving the last window by a second.
ClusterRun run_measured(const Options& opt, bool chaos, int salt,
                        const std::string& dir, SpanLog* spans, int parent) {
  const std::vector<Time> windows = windows_for(opt.seconds);
  Time total = 0;
  for (const Time w : windows) total += w;
  ClusterConfig cfg = base_config(opt, chaos, salt, total + 1000,
                                  static_cast<int>(windows.size()), dir);
  return run_cluster_once(cfg, windows, spans, parent);
}

struct ClientTotals {
  double submitted = 0, replies = 0, resubmits = 0;
  double elapsed_s = 0;
  std::vector<double> latencies_ms;
};

ClientTotals measured_totals(const ClusterRun& run) {
  ClientTotals t;
  for (std::size_t w = 1; w < run.windows.size(); ++w) {
    const ClientRunResult& r = run.windows[w].res;
    t.submitted += static_cast<double>(r.submitted);
    t.replies += static_cast<double>(r.replies);
    t.resubmits += static_cast<double>(r.resubmits);
    t.elapsed_s += static_cast<double>(r.elapsed_ms) / 1e3;
    t.latencies_ms.insert(t.latencies_ms.end(), r.latencies_ms.begin(),
                          r.latencies_ms.end());
  }
  return t;
}

double window_rate(const Window& w) {
  return safe_div(static_cast<double>(w.res.replies),
                  static_cast<double>(w.res.elapsed_ms) / 1e3);
}

/// Checks one cluster run; failures go to `out`.
void check_run(const ClusterRun& run, bool chaos, const std::string& label,
               Outcome* out) {
  if (!run.res.contract_ok()) {
    std::string why = label + ": service contract failed";
    if (!run.res.detail.empty()) why += " (" + run.res.detail + ")";
    for (const std::string& v : run.res.violations) why += "; " + v;
    out->fail(why);
    out->failed += std::max<std::uint64_t>(1, run.res.violations.size());
  }
  for (std::size_t w = 0; w < run.windows.size(); ++w) {
    if (!run.windows[w].res.ok) {
      out->fail(label + ": client window " + std::to_string(w) +
                " could not bind its links");
    }
    if (run.windows[w].res.replies == 0) {
      out->fail(label + ": client window " + std::to_string(w) +
                " got no reply");
      ++out->failed;
    }
  }
  if (chaos) {
    if (run.res.chaos_events.empty() ||
        run.res.chaos_events.front().restarted_at_ms == saf::kNeverTime) {
      out->fail(label + ": the scheduled kill/restart did not happen");
    }
    if (run.sum("svc_snapshot_adopted") <= 0) {
      out->fail(label + ": the restarted node adopted no snapshot");
    }
  }
}

/// Replies/s of the last measured window over the first.
double rate_retention(const ClusterRun& run) {
  return window_ratio(window_rate(run.windows[1]),
                      window_rate(run.windows.back()));
}

/// (resubmits + contract violations) / requests submitted. A request
/// left unanswered longer than the resubmit timeout has been resubmitted
/// and counts there. The request each closed-loop client still has in
/// flight when its window ends on schedule is younger than that, and is
/// not a failure.
double failed_frac(const ClientTotals& t, std::uint64_t violations) {
  return safe_div(t.resubmits + static_cast<double>(violations), t.submitted);
}

double decisions_per_s(const ClusterRun& run) {
  return safe_div(run.max("svc_frontier"),
                  run.max("total_elapsed_ms") / 1e3);
}

void report_end_to_end(const ClusterRun& run, bool chaos, double setup_s,
                       Outcome* out) {
  const ClientTotals t = measured_totals(run);
  const double tail_p = tail_pct(chaos, t.latencies_ms.size());
  const double dps = decisions_per_s(run);
  const double rps = safe_div(t.replies, t.elapsed_s);
  const double p50 = latency_percentile(t.latencies_ms, 50);
  const double tail = latency_percentile(t.latencies_ms, tail_p);
  out->e2e("setup_s", setup_s, "s");
  out->e2e("throughput_per_s", dps, "1/s");
  out->e2e("completed_per_s", rps, "1/s");
  out->e2e("latency_p50_ms", p50, "ms");
  out->e2e("latency_tail_ms", tail, "ms");
  out->e2e("peak_rss_mb", run.rss_mb, "MB");

  out->alias("svc_decisions_per_s", dps, "1/s");
  out->alias("svc_replies_per_s", rps, "1/s");
  out->alias("svc_reply_p50_ms", p50, "ms");
  out->alias("svc_reply_p90_ms",
             latency_percentile(t.latencies_ms, 90), "ms");
  out->alias("svc_reply_p99_ms",
             latency_percentile(t.latencies_ms, 99), "ms");
  out->alias("svc_reply_samples", static_cast<double>(t.latencies_ms.size()),
             "count");
  out->alias("svc_failed_frac", failed_frac(t, out->failed), "ratio");
  out->alias("svc_rate_retention", rate_retention(run), "ratio");
  out->alias("svc_node_rss_mb", run.rss_mb, "MB");
  out->alias("svc_frontier", run.max("svc_frontier"), "count");
  for (std::size_t w = 1; w < run.windows.size(); ++w) {
    out->alias("svc_window" + std::to_string(w) + "_replies_per_s",
               window_rate(run.windows[w]), "1/s");
  }
}

/// Per-layer metrics of the traced cluster, with the replay rows
/// weighted by its per-decision counts into the node-CPU ledger.
void report_layers(const ClusterRun& run, bool chaos, const ReplayRows& rows,
                   double overhead, Outcome* out) {
  const double dec = run.sum("svc_frontier");  // decisions x nodes
  const double frames = run.sum("frames_sent");
  const double acks = run.sum("acks_sent");
  const double hbs = run.sum("heartbeats_sent");
  const double retx = run.sum("retransmits");
  const double dgrams = run.sum("datagrams_sent");
  const double dgrams_rx = run.sum("datagrams_received");
  const double data_frames = std::max(0.0, frames - acks - hbs - retx);
  const double events = run.sum("events_processed");
  const double proposals = run.sum("svc_proposals_received");
  const double served = run.sum("svc_proposals_served");

  out->layer("rt.link.frames_per_decision", safe_div(frames, dec), "count");
  out->layer("rt.link.acks_per_decision", safe_div(acks, dec), "count");
  out->layer("rt.link.datagrams_per_decision", safe_div(dgrams, dec), "count");
  out->layer("rt.link.frames_per_datagram", safe_div(frames, dgrams), "count");
  out->layer("rt.link.syscalls_per_decision",
             safe_div(run.sum("syscalls_send") + run.sum("syscalls_recv"), dec),
             "count");
  out->layer("rt.link.retransmits_per_decision", safe_div(retx, dec), "count");
  out->layer("rt.link.dups_per_decision",
             safe_div(run.sum("dups_dropped"), dec), "count");
  out->layer("rt.link.useful_frame_frac", safe_div(frames - acks - retx, frames),
             "ratio");
  out->layer("rt.link.window_stalls", run.sum("window_stalls"), "count");
  out->layer("rt.link.abandoned", run.sum("abandoned"), "count");

  double user = 0, sys = 0, wall = 0, vcsw = 0, ivcsw = 0;
  for (const Life& l : run.lives) {
    user += l.user_s;
    sys += l.sys_s;
    wall += l.end_s - l.start_s;
    vcsw += l.nvcsw;
    ivcsw += l.nivcsw;
  }
  const double cpu_ns_per_dec = safe_div((user + sys) * 1e9, dec);
  out->layer("rt.node.user_us_per_decision", safe_div(user * 1e6, dec), "us");
  out->layer("rt.node.sys_us_per_decision", safe_div(sys * 1e6, dec), "us");
  out->layer("rt.node.cpu_util", safe_div(user + sys, wall), "ratio");
  out->layer("rt.node.vcsw_per_decision", safe_div(vcsw, dec), "count");
  out->layer("rt.node.ivcsw_per_s", safe_div(ivcsw, wall), "1/s");

  // The ledger: replay-row cost times how often the node paid it, per
  // decision per node. Receives mirror sends across the cluster, so
  // data frames decoded per node ~ data frames encoded.
  const double per_dec_data = safe_div(data_frames, dec);
  const double ledger_ns =
      per_dec_data * (rows.codec_encode_ns + rows.codec_decode_ns) +
      safe_div(frames, dec) * rows.wire_build_ns_per_frame +
      safe_div(dgrams_rx, dec) * rows.link_process_datagram_ns +
      safe_div(events, dec) * rows.event_queue_ns_per_op +
      safe_div(proposals + served, dec) * rows.svc_submit_reply_ns / 2.0;
  out->layer("rt.ledger_ns_per_decision", ledger_ns, "ns");
  out->layer("rt.ledger_explained_frac", safe_div(ledger_ns, cpu_ns_per_dec),
             "ratio");

  out->layer("svc.proposals_per_batch",
             safe_div(proposals, run.sum("svc_batches")), "count");
  out->layer("svc.batched_instance_frac",
             safe_div(run.sum("svc_batches"), run.sum("svc_locally_decided")),
             "ratio");
  const ClientTotals t = measured_totals(run);
  double all_replies = 0;
  for (const Window& w : run.windows) {
    all_replies += static_cast<double>(w.res.replies);
  }
  out->layer("svc.client.cpu_us_per_reply",
             safe_div(run.client_cpu_s * 1e6, all_replies), "us");
  out->layer("svc.client.resubmits", t.resubmits, "count");
  out->layer("svc.events_per_decision", safe_div(events, dec), "count");
  out->layer("svc.heartbeats_per_decision", safe_div(hbs, dec), "count");
  out->layer("svc.result_kb_per_node",
             safe_div(run.result_bytes / 1024.0,
                      static_cast<double>(run.nodes.size())),
             "KB");
  out->layer("svc.contract_check_ms", run.contract_check_s * 1e3, "ms");
  out->layer("svc.snapshot_adopted", run.sum("svc_snapshot_adopted"), "count");
  out->layer("svc.snap_requests", run.sum("svc_snap_requests"), "count");
  out->layer("svc.snaps_served", run.sum("svc_snaps_served"), "count");
  out->layer("svc_rate_retention", rate_retention(run), "ratio");
  out->layer("svc_failed_frac", failed_frac(t, out->failed), "ratio");
  double dropped = 0;
  for (const Life& l : run.lives) dropped += l.faults_dropped;
  out->layer("fault.drop_frac", safe_div(dropped, frames + dropped), "ratio");
  out->layer("trace.overhead_frac", overhead, "ratio");
  out->layer("latency_samples", static_cast<double>(t.latencies_ms.size()),
             "count");
  out->layer("latency_tail_pct", tail_pct(chaos, t.latencies_ms.size()), "pct");
  out->layer("svc_reply_p99_ms",
             latency_percentile(t.latencies_ms, 99), "ms");
}

}  // namespace

Outcome run_svc_workload(const Options& opt, bool chaos, SpanLog* spans) {
  Outcome out;
  const std::string dir = opt.out_dir + "/cluster";

  if (spans == nullptr) {
    std::vector<double> setups;
    for (int p = 0; p < kSetupProbes; ++p) {
      // A short cluster timed only for launch -> first reply.
      ClusterConfig cfg = base_config(opt, /*chaos=*/false, 10 + p,
                                      kProbeWindowMs + 200, 1, dir);
      cfg.linger_ms = 100;
      const ClusterRun probe =
          run_cluster_once(cfg, {kProbeWindowMs}, nullptr, SpanLog::kNoParent);
      check_run(probe, false, "setup probe " + std::to_string(p), &out);
      setups.push_back(probe.setup_s());
    }
    const ClusterRun run =
        run_measured(opt, chaos, 1, dir, nullptr, SpanLog::kNoParent);
    check_run(run, chaos, "measured cluster", &out);
    for (const double s : setups) {
      if (s < 0) out.fail("a cluster answered no request in its set-up window");
    }
    out.attempted =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       measured_totals(run).submitted));
    report_end_to_end(run, chaos, median(setups), &out);
    return out;
  }

  // Traced run: the same cluster untraced, then traced, then the replay
  // rows weighted by the traced cluster's counts.
  const ClusterRun plain =
      run_measured(opt, chaos, 1, dir, nullptr, SpanLog::kNoParent);
  check_run(plain, chaos, "untraced cluster", &out);
  const int root = spans->open(chaos ? "workload.svc-chaos" : "workload.svc-steady");
  const ClusterRun traced = run_measured(opt, chaos, 2, dir, spans, root);
  spans->close(root);
  check_run(traced, chaos, "traced cluster", &out);
  out.attempted = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(measured_totals(traced).submitted));

  const auto replies_per_s = [](const ClusterRun& r) {
    const ClientTotals t = measured_totals(r);
    return safe_div(t.replies, t.elapsed_s);
  };
  const double overhead =
      1.0 - window_ratio(replies_per_s(plain), replies_per_s(traced));

  const double fpd = safe_div(traced.sum("frames_sent"),
                              traced.sum("datagrams_sent"));
  const ReplayRows rows =
      run_replay_rows(fpd, port_for(opt.seed, 3), spans);
  report_layers(traced, chaos, rows, overhead, &out);
  report_replay_rows(rows, &out);
  // A traced run prints per-layer metrics; this feeds the readable lines.
  report_end_to_end(traced, chaos, traced.setup_s(), &out);
  return out;
}

}  // namespace perfbench
