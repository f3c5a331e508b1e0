// sim-sweep: the deterministic simulator, no sockets.
//
// Batches of seeded schedule cases of kset, two-wheels and phibar run
// through the check::Protocol registry on a sweep::ThreadPool of at most
// four workers. Every run must pass the registry's invariants, and every
// batch's per-protocol digest checksum (XOR of the runs' delivery
// digests) must come out equal on one thread, on the pool, and traced or
// not; a fixed reference batch must also reproduce the pinned checksums
// below.
//
// The traced run adds a few single-threaded kset runs at n=1024 with
// batched broadcasts (the `sweep_runner --scale` configuration) for the
// large-n per-layer rows. n=1024 is not an end-to-end workload: on a
// shared host its run-to-run spread exceeds every admissible bound.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "check/protocols.h"
#include "common.h"
#include "core/invariants.h"
#include "core/kset_agreement.h"
#include "metric_math.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using saf::sweep::RunStats;
using saf::sweep::ThreadPool;

struct MixEntry {
  const char* protocol;
  const char* layer;  ///< per-layer metric stem
};
/// The protocols `sweep_runner` sweeps by default, in its order. Like
/// it, a batch runs the same number of seeds of each.
constexpr std::array<MixEntry, 3> kMix = {{{"kset", "core.kset"},
                                           {"two-wheels", "core.two_wheels"},
                                           {"phibar", "core.phibar"}}};
constexpr std::size_t kRunsPerProtocol = 32;

/// Reference batch whose checksums are pinned: master seed, runs per
/// protocol (kMix order) and the expected XOR of delivery digests.
constexpr std::uint64_t kPinSeed = 20'060'723;
constexpr std::array<std::size_t, 3> kPinRuns = {8, 8, 8};
/// Regenerate with `perfbench --workload pins` after a change that is
/// meant to alter schedules; a speed-up must leave them as they are.
constexpr std::array<std::uint64_t, 3> kPinDigest = {
    4996584292679681715ull, 6472049476065851677ull, 12230505406855918256ull};
/// Batched-broadcast reference: kScalePinRuns seeded kset runs at n=128,
/// folded into one FNV digest of (finish time, events, messages).
constexpr std::uint64_t kScalePinSeed = 20'060'723;
constexpr int kScalePinRuns = 4;
constexpr std::uint64_t kScalePinDigest = 3662230123655436271ull;

/// Loopback port for the replay rows' link (svc workloads use others).
std::uint16_t replay_port(std::uint64_t seed) {
  return static_cast<std::uint16_t>(39'000 + (seed % 400) * 2);
}

int sweep_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-run trace record, index-addressed (filled by pool workers).
struct RunTrace {
  double start = 0, seam = 0, end = 0;
  std::uint64_t fd_queries = 0;
};

struct ProtoBatch {
  std::uint64_t digest = 0;
  std::uint64_t runs = 0, messages = 0, events = 0, failures = 0;
  std::vector<double> run_ms;
  std::vector<RunTrace> traces;
};

struct Batch {
  double wall_s = 0;
  std::array<ProtoBatch, 3> proto;
  std::uint64_t messages() const {
    std::uint64_t m = 0;
    for (const auto& p : proto) m += p.messages;
    return m;
  }
};

std::uint64_t batch_seed(std::uint64_t master, std::size_t proto,
                         std::size_t index) {
  return saf::util::derive_seed(
      saf::util::derive_seed(master, kMix[proto].protocol),
      static_cast<std::uint64_t>(index));
}

/// One batch: every protocol of the mix in turn, `runs[i]` cases each.
Batch run_batch(ThreadPool& pool, std::uint64_t master, std::size_t index,
                const std::array<std::size_t, 3>& runs, bool traced) {
  Batch b;
  const double t0 = mono_s();
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    const saf::check::Protocol* p =
        saf::check::find_protocol(kMix[i].protocol);
    ProtoBatch& pb = b.proto[i];
    if (traced) pb.traces.assign(runs[i], RunTrace{});
    const saf::sweep::SweepResult r = saf::sweep::run_sweep(
        pool, batch_seed(master, i, index), runs[i],
        [p, traced, &pb](std::uint64_t seed, std::size_t idx) {
          const saf::check::ScheduleCase c = saf::check::generate_case(*p, seed);
          saf::check::RunContext ctx;
          RunStats s;
          s.seed = seed;
          saf::check::RunOutcome out;
          try {
            if (traced) {
              RunTrace& tr = pb.traces[idx];
              saf::trace::RingSink sink(16);
              saf::trace::MetricsRegistry metrics;
              ctx.trace_sink = &sink;
              ctx.metrics = &metrics;
              ctx.trace_mask = 0;  // count, emit nothing
              ctx.on_simulator = [&tr](saf::sim::Simulator&) {
                tr.seam = mono_s();
              };
              tr.start = mono_s();
              out = p->run(c, ctx);
              tr.end = mono_s();
              tr.fd_queries = metrics.counter("fd.queries").value;
            } else {
              out = p->run(c, ctx);
            }
          } catch (const std::exception&) {
            out.ok = false;
          }
          s.ok = out.ok;
          s.events = out.events_processed;
          s.messages = out.total_messages;
          s.digest = out.digest;
          return s;
        });
    pb.digest = r.digest_checksum();
    pb.runs = r.count();
    pb.messages = r.total_messages();
    pb.events = r.total_events();
    pb.failures = r.failures();
    for (const RunStats& s : r.runs) {
      pb.run_ms.push_back(s.wall_ms);
    }
  }
  b.wall_s = mono_s() - t0;
  return b;
}

std::array<std::size_t, 3> mix_runs() {
  return {kRunsPerProtocol, kRunsPerProtocol, kRunsPerProtocol};
}

/// Set-up time: from creating a worker pool to the first completed
/// simulated run, the first case of the pinned reference's kset batch
/// (the same case in every run, so the figure does not vary with the
/// seed).
double setup_probe(int jobs, Outcome* out) {
  const double t0 = mono_s();
  ThreadPool pool(jobs);
  const Batch b = run_batch(pool, kPinSeed, 0, {1, 0, 0}, false);
  const double s = mono_s() - t0;
  if (b.proto[0].failures != 0) out->fail("set-up run violated an invariant");
  return s;
}

/// Batches until `seconds` have passed, after one untimed warm-up batch
/// (the workers' first batch grows their allocator arenas and runs
/// about three times slower than the rest). With `setups`, one set-up
/// probe follows every batch, outside the batches' timing: probes spread
/// over the whole run see the host as the batches do, where probes
/// taken back to back all catch the same moment of a shared host.
std::vector<Batch> sweep_for(ThreadPool& pool, std::uint64_t master,
                             int seconds, bool traced,
                             std::vector<double>* setups, Outcome* out) {
  run_batch(pool, saf::util::derive_seed(master, "warm-up"), 0, mix_runs(),
            false);
  std::vector<Batch> batches;
  const double end = mono_s() + seconds;
  do {
    batches.push_back(run_batch(pool, master, batches.size(), mix_runs(), traced));
    if (setups != nullptr) setups->push_back(setup_probe(pool.jobs(), out));
  } while (mono_s() < end);
  return batches;
}

/// Retention over consecutive units (batches or runs): the median rate
/// of the last third of the units over that of the first third.
/// Medians, because single runs on a shared host stall for tens of
/// milliseconds at random.
template <typename Unit, typename Rate>
double retention(const std::vector<Unit>& units, Rate rate) {
  const std::size_t g = std::max<std::size_t>(1, units.size() / 3);
  std::vector<double> first, last;
  for (std::size_t i = 0; i < g && i < units.size(); ++i) {
    first.push_back(rate(units[i]));
    last.push_back(rate(units[units.size() - 1 - i]));
  }
  return window_ratio(median(first), median(last));
}

void report_sim_e2e(double setup_s, double rss_mb, double msgs, double runs,
                    double secs, const std::vector<double>& run_ms, double ret,
                    Outcome* out) {
  const double tail_p = tail_percentile(run_ms.size());
  const double p50 = latency_percentile(run_ms, 50);
  const double tail = latency_percentile(run_ms, tail_p);
  out->e2e("setup_s", setup_s, "s");
  out->e2e("throughput_per_s", safe_div(msgs, secs), "1/s");
  out->e2e("completed_per_s", safe_div(runs, secs), "1/s");
  out->e2e("latency_p50_ms", p50, "ms");
  out->e2e("latency_tail_ms", tail, "ms");
  out->e2e("peak_rss_mb", rss_mb, "MB");
  out->alias("sim_msgs_per_s", safe_div(msgs, secs), "1/s");
  out->alias("sim_runs_per_s", safe_div(runs, secs), "1/s");
  out->alias("sim_run_p50_ms", p50, "ms");
  out->alias("sim_run_p" + std::to_string(static_cast<int>(tail_p)) + "_ms",
             tail, "ms");
  out->alias("sim_run_samples", static_cast<double>(run_ms.size()), "count");
  out->alias("sim_rate_retention", ret, "ratio");
  out->alias("sim_failed_frac", safe_div(static_cast<double>(out->failed),
                                         static_cast<double>(out->attempted)),
             "ratio");
}

double batch_retention(const std::vector<Batch>& batches) {
  return retention(batches, [](const Batch& b) {
    return safe_div(static_cast<double>(b.messages()), b.wall_s);
  });
}

// --- n=1024 rows -------------------------------------------------------

constexpr int kScaleN = 1024;
constexpr int kScaleRuns = 4;

saf::core::KSetRunConfig scale_config(int n, std::uint64_t seed) {
  saf::core::KSetRunConfig cfg;
  cfg.n = n;
  cfg.t = 3;
  cfg.k = cfg.z = 2;
  cfg.seed = seed;
  cfg.perfect_oracle = true;      // measure decisions, not stabilization
  cfg.batched_broadcasts = true;  // O(n) queue events per all-to-all step
  cfg.horizon = 20'000;
  cfg.crashes.crash_at(n - 1, 0).crash_at(n / 2, 30);
  return cfg;
}

struct ScaleRun {
  double start = 0, seam = 0, end = 0;
  double messages = 0, events = 0, finish_ticks = 0;
  bool ok = true;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// One kset run at n, split at the on_simulator seam; folds the run's
/// (finish time, events, messages) into `digest` when given.
ScaleRun scale_run(int n, std::uint64_t seed, std::uint64_t* digest) {
  saf::core::KSetRunConfig cfg = scale_config(n, seed);
  ScaleRun r;
  cfg.on_simulator = [&r](saf::sim::Simulator&) { r.seam = mono_s(); };
  r.start = mono_s();
  const saf::core::KSetRunResult res = saf::core::run_kset_agreement(cfg);
  r.end = mono_s();
  r.messages = static_cast<double>(res.total_messages);
  r.events = static_cast<double>(res.events_processed);
  r.finish_ticks = static_cast<double>(res.finish_time);
  r.ok = saf::core::kset_invariants(cfg, res).empty();
  if (digest != nullptr) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(res.finish_time),
                                  res.events_processed, res.total_messages}) {
      *digest = fnv(*digest, v);
    }
  }
  return r;
}

std::uint64_t scale_pin_digest(bool* ok) {
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
  for (int i = 0; i < kScalePinRuns; ++i) {
    *ok &= scale_run(128, saf::util::derive_seed(kScalePinSeed, i), &digest).ok;
  }
  return digest;
}

/// Traced n=1024 runs: spans plus the large-n rows.
void report_scale_rows(std::uint64_t master, SpanLog* spans, Outcome* out) {
  const int root = spans->open("n1024");
  double setup = 0, run = 0, msgs = 0, events = 0;
  std::vector<double> ticks;
  for (int i = 0; i < kScaleRuns; ++i) {
    const ScaleRun r = scale_run(
        kScaleN, saf::util::derive_seed(master, static_cast<std::uint64_t>(i)),
        nullptr);
    if (!r.ok) {
      out->fail("an n=1024 run violated kset invariants");
      ++out->failed;
    }
    const int id = spans->add("core.run_kset_agreement", root, r.start, r.end);
    spans->add("sim.setup", id, r.start, r.seam);
    spans->add("sim.run", id, r.seam, r.end);
    setup += r.seam - r.start;
    run += r.end - r.seam;
    msgs += r.messages;
    events += r.events;
    ticks.push_back(r.finish_ticks);
  }
  spans->close(root);
  out->layer("core.kset_n1024.ms_per_run", (setup + run) * 1e3 / kScaleRuns,
             "ms");
  out->layer("sim.n1024.setup_ms_per_run", setup * 1e3 / kScaleRuns, "ms");
  out->layer("sim.n1024.run_ns_per_msg", safe_div(run * 1e9, msgs), "ns");
  out->layer("sim.n1024.msgs_per_event", safe_div(msgs, events), "count");
  // Seed-determined: a pure speed-up leaves this count exactly as it was.
  out->layer("core.decision_ticks_p50", latency_percentile(ticks, 50), "ticks");
}

// --- sim-sweep ---------------------------------------------------------

struct SweepTotals {
  double msgs = 0, runs = 0, events = 0, secs = 0, failures = 0;
  std::vector<double> run_ms;
};

SweepTotals totals(const std::vector<Batch>& batches) {
  SweepTotals t;
  for (const Batch& b : batches) {
    t.secs += b.wall_s;
    for (const ProtoBatch& p : b.proto) {
      t.msgs += static_cast<double>(p.messages);
      t.runs += static_cast<double>(p.runs);
      t.events += static_cast<double>(p.events);
      t.failures += static_cast<double>(p.failures);
      t.run_ms.insert(t.run_ms.end(), p.run_ms.begin(), p.run_ms.end());
    }
  }
  return t;
}

/// Digest gates: batch 0 re-run on one thread must match the pool's,
/// and the pinned reference batches must reproduce their checksums.
/// Returns the single-thread wall time of batch 0.
double check_digests(ThreadPool& pool, std::uint64_t master,
                     const Batch& first, Outcome* out) {
  ThreadPool serial(1);
  const Batch again = run_batch(serial, master, 0, mix_runs(), false);
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    if (again.proto[i].digest != first.proto[i].digest) {
      out->fail(std::string(kMix[i].protocol) +
                ": batch 0 digest differs between 1 and " +
                std::to_string(pool.jobs()) + " threads");
      ++out->failed;
    }
  }
  const Batch pin = run_batch(pool, kPinSeed, 0, kPinRuns, false);
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    if (pin.proto[i].digest != kPinDigest[i] || pin.proto[i].failures != 0) {
      out->fail(std::string(kMix[i].protocol) +
                ": pinned reference digest " +
                std::to_string(pin.proto[i].digest) + " != " +
                std::to_string(kPinDigest[i]));
      ++out->failed;
    }
  }
  bool ok = true;
  const std::uint64_t scale = scale_pin_digest(&ok);
  if (scale != kScalePinDigest || !ok) {
    out->fail("pinned n=128 batched-broadcast digest " + std::to_string(scale) +
              " != " + std::to_string(kScalePinDigest));
    ++out->failed;
  }
  return again.wall_s;
}

}  // namespace

Outcome run_sim_sweep(const Options& opt, SpanLog* spans) {
  Outcome out;
  const int jobs = sweep_jobs();
  const std::uint64_t master = saf::util::derive_seed(opt.seed, "sim-sweep");

  if (spans == nullptr) {
    std::vector<double> setups;
    ThreadPool pool(jobs);
    const std::vector<Batch> batches =
        sweep_for(pool, master, opt.seconds, false, &setups, &out);
    // Before the digest gates: their runs are not part of the workload.
    const double rss_mb = peak_rss_mb();
    const SweepTotals t = totals(batches);
    out.attempted = static_cast<std::uint64_t>(t.runs);
    out.failed += static_cast<std::uint64_t>(t.failures);
    if (t.failures > 0) out.fail("runs violated registry invariants");
    check_digests(pool, master, batches.front(), &out);
    report_sim_e2e(median(setups), rss_mb, t.msgs, t.runs, t.secs, t.run_ms,
                   batch_retention(batches), &out);
    return out;
  }

  ThreadPool pool(jobs);
  const std::vector<Batch> plain =
      sweep_for(pool, master, opt.seconds, false, nullptr, &out);
  const int root = spans->open("workload.sim-sweep");
  const std::vector<Batch> traced =
      sweep_for(pool, master, opt.seconds, true, nullptr, &out);
  spans->close(root);
  const SweepTotals tp = totals(plain);
  const SweepTotals tt = totals(traced);
  out.attempted = static_cast<std::uint64_t>(tt.runs);
  out.failed += static_cast<std::uint64_t>(tt.failures + tp.failures);
  if (tt.failures + tp.failures > 0) out.fail("runs violated registry invariants");
  // Tracing must not change a schedule.
  for (std::size_t b = 0; b < std::min(plain.size(), traced.size()); ++b) {
    for (std::size_t i = 0; i < kMix.size(); ++i) {
      if (plain[b].proto[i].digest != traced[b].proto[i].digest) {
        out.fail(std::string(kMix[i].protocol) + ": batch " + std::to_string(b) +
                 " digest differs traced vs untraced");
        ++out.failed;
      }
    }
  }
  const double serial_s = check_digests(pool, master, plain.front(), &out);

  // Spans: one per run, split at the on_simulator seam.
  double setup_s = 0, run_s = 0;
  double fd_queries = 0;
  double tail_ratio = 0;
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    double proto_us = 0, proto_runs = 0;
    std::vector<double> run_ms;
    for (const Batch& b : traced) {
      const ProtoBatch& pb = b.proto[i];
      for (const RunTrace& tr : pb.traces) {
        const int id = spans->add(std::string("check.Protocol.run.") + kMix[i].protocol,
                                  root, tr.start, tr.end);
        spans->add("sim.setup", id, tr.start, tr.seam);
        spans->add("sim.run", id, tr.seam, tr.end);
        setup_s += tr.seam - tr.start;
        run_s += tr.end - tr.seam;
        proto_us += (tr.end - tr.start) * 1e6;
        fd_queries += static_cast<double>(tr.fd_queries);
      }
      proto_runs += static_cast<double>(pb.runs);
      run_ms.insert(run_ms.end(), pb.run_ms.begin(), pb.run_ms.end());
    }
    out.layer(std::string(kMix[i].layer) + ".us_per_run",
              safe_div(proto_us, proto_runs), "us");
    tail_ratio = std::max(tail_ratio, safe_div(latency_percentile(run_ms, 99),
                                               latency_percentile(run_ms, 50)));
  }
  out.layer("sim.setup_us_per_run", safe_div(setup_s * 1e6, tt.runs), "us");
  out.layer("sim.run_ns_per_msg", safe_div(run_s * 1e9, tt.msgs), "ns");
  out.layer("sim.msgs_per_event", safe_div(tt.msgs, tt.events), "count");
  out.layer("sim.events_per_run", safe_div(tt.events, tt.runs), "count");
  out.layer("fd.queries_per_run", safe_div(fd_queries, tt.runs), "count");
  // Speed-up of batch 0 on the pool over one thread, per worker.
  out.layer("sweep.parallel_efficiency",
            safe_div(serial_s, plain.front().wall_s *
                                   static_cast<double>(pool.jobs())),
            "ratio");
  out.layer("sweep.run_p99_over_p50", tail_ratio, "ratio");
  out.layer("sim_failed_frac",
            safe_div(static_cast<double>(out.failed), tt.runs), "ratio");
  out.layer("trace.overhead_frac",
            1.0 - safe_div(safe_div(tt.msgs, tt.secs), safe_div(tp.msgs, tp.secs)),
            "ratio");
  out.layer("sim_rate_retention", batch_retention(traced), "ratio");
  out.layer("latency_samples", static_cast<double>(tt.run_ms.size()), "count");
  out.layer("latency_tail_pct", tail_percentile(tt.run_ms.size()), "pct");
  report_scale_rows(master, spans, &out);
  report_replay_rows(run_replay_rows(1.0, replay_port(opt.seed), spans), &out);
  return out;
}

std::string compute_pins() {
  std::string out;
  ThreadPool pool(sweep_jobs());
  const Batch pin = run_batch(pool, kPinSeed, 0, kPinRuns, false);
  for (std::size_t i = 0; i < kMix.size(); ++i) {
    out += std::string(kMix[i].protocol) + " " +
           std::to_string(pin.proto[i].digest) + " failures " +
           std::to_string(pin.proto[i].failures) + "\n";
  }
  bool ok = true;
  out += "scale-n128 " + std::to_string(scale_pin_digest(&ok)) + "\n";
  return out;
}

}  // namespace perfbench
