// Replay rows: the message kinds the workloads send, pushed through each
// layer's public functions in a timed loop, outside any cluster.
//
// The protocol mix is taken from a simulated k-set run at the service's
// n, t, k (the live node embeds the same KSetCore, so it sends the same
// kinds in the same proportions): Phase1, Phase2, the decision inside
// its reliable-broadcast envelope, and RB acks. The service adds
// Submit/Reply and 100-entry SnapResp chunks; the transport adds
// heartbeats. Every row reports the median of kReps timed repetitions.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/kset_agreement.h"
#include "metric_math.h"
#include "rt/clock.h"
#include "rt/codec.h"
#include "rt/udp_link.h"
#include "rt/wire.h"
#include "sim/event_queue.h"
#include "sim/reliable_broadcast.h"
#include "svc/wire.h"
#include "util/arena.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using saf::ProcSet;
using saf::sim::Message;

constexpr int kReps = 5;

/// Median over kReps of (seconds for one repetition) / ops, in ns.
template <typename Fn>
double time_row(std::size_t ops, Fn&& rep) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = mono_s();
    rep();
    ns.push_back((mono_s() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Message-kind counts of one simulated k-set run at the service's
/// shape, by the kind the codec sees on the wire.
std::map<std::string, std::uint64_t> kset_mix() {
  std::map<std::string, std::uint64_t> mix;
  saf::core::KSetRunConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.k = cfg.z = 2;
  cfg.seed = 7;
  cfg.perfect_oracle = true;
  cfg.horizon = 5'000;
  cfg.delivery_observer = [&mix](saf::Time, saf::ProcessId,
                                 const Message& m) {
    if (dynamic_cast<const saf::sim::RbEnvelope*>(&m) != nullptr) {
      ++mix["rb_env"];
    } else {
      ++mix[std::string(m.tag())];
    }
  };
  saf::core::run_kset_agreement(cfg);
  return mix;
}

/// A sequence of 64 protocol messages in the simulated proportions.
std::vector<const Message*> protocol_messages(saf::util::Arena& arena) {
  const auto mix = kset_mix();
  std::uint64_t total = 0;
  for (const auto& [k, v] : mix) total += v;
  ProcSet leaders;
  leaders.insert(0);
  leaders.insert(2);
  std::vector<const Message*> out;
  int instance = 40'000;
  for (const auto& [kind, count] : mix) {
    const std::size_t copies = std::max<std::size_t>(
        1, static_cast<std::size_t>(64.0 * static_cast<double>(count) /
                                    static_cast<double>(std::max<std::uint64_t>(1, total))));
    for (std::size_t i = 0; i < copies; ++i, ++instance) {
      Message* m = nullptr;
      if (kind == "phase1") {
        m = arena.create<saf::core::Phase1Msg>(1, leaders, 1'000'123, instance);
      } else if (kind == "phase2") {
        m = arena.create<saf::core::Phase2Msg>(1, 1'000'123, instance);
      } else if (kind == "rb_env") {
        auto* env = arena.create<saf::sim::RbEnvelope>();
        env->origin = 1;
        env->origin_seq = static_cast<std::uint64_t>(instance);
        auto* inner = arena.create<saf::core::DecisionMsg>(1'000'123, instance);
        inner->sender = 1;
        env->inner = inner;
        m = env;
      } else if (kind == "rb_ack") {
        auto* ack = arena.create<saf::sim::RbAckMsg>();
        ack->origin = 1;
        ack->origin_seq = static_cast<std::uint64_t>(instance);
        m = ack;
      } else {
        continue;  // kinds outside the service's vocabulary
      }
      m->sender = 1;
      out.push_back(m);
    }
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> encode_all(
    const std::vector<const Message*>& msgs) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const Message* m : msgs) {
    std::vector<std::uint8_t> buf;
    saf::rt::encode_message(*m, &buf);
    out.push_back(std::move(buf));
  }
  out.push_back(saf::rt::encode_heartbeat(12'345));
  return out;
}

}  // namespace

ReplayRows run_replay_rows(double frames_per_datagram, std::uint16_t link_port,
                           SpanLog* spans) {
  ReplayRows r;
  const int root = spans ? spans->open("replay") : SpanLog::kNoParent;
  saf::util::Arena msg_arena;
  const std::vector<const Message*> msgs = protocol_messages(msg_arena);
  const std::vector<std::vector<std::uint8_t>> payloads = encode_all(msgs);
  const std::size_t pack = static_cast<std::size_t>(
      std::clamp(frames_per_datagram + 0.5, 1.0, 32.0));

  {
    Scope s(spans, "replay.rt.codec.encode", root);
    constexpr std::size_t kIters = 4'000;
    std::vector<std::uint8_t> buf;
    buf.reserve(256);
    r.codec_encode_ns = time_row(kIters * msgs.size(), [&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        for (const Message* m : msgs) {
          buf.clear();
          saf::rt::encode_message(*m, &buf);
          keep(buf.data());
        }
      }
    });
  }
  {
    Scope s(spans, "replay.rt.codec.decode", root);
    constexpr std::size_t kIters = 4'000;
    saf::util::Arena arena;
    const std::size_t proto = payloads.size() - 1;  // heartbeat excluded
    r.codec_decode_ns = time_row(kIters * proto, [&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        for (std::size_t j = 0; j < proto; ++j) {
          keep(saf::rt::decode_message(payloads[j].data(), payloads[j].size(),
                                       arena));
        }
        if (i % 64 == 63) arena.reset();
      }
      arena.reset();
    });
  }

  // Datagrams packed `pack` frames each, cycling through the payloads.
  const auto build_datagrams = [&](std::size_t count, std::uint64_t first_seq,
                                   saf::ProcessId from) {
    std::vector<std::vector<std::uint8_t>> out;
    saf::rt::wire::DatagramBuilder b;
    std::uint64_t seq = first_seq;
    std::size_t p = 0;
    for (std::size_t d = 0; d < count; ++d) {
      b.begin(from, 0, 0);
      for (std::size_t f = 0; f < pack; ++f, ++seq) {
        const auto& pl = payloads[p++ % payloads.size()];
        if (!b.fits(pl.size())) break;
        b.add_frame(saf::rt::wire::FrameKind::kData, seq, pl.data(), pl.size());
      }
      b.set_cum_ack(0);
      out.emplace_back(b.data(), b.data() + b.size());
    }
    return out;
  };

  {
    Scope s(spans, "replay.rt.wire.build", root);
    constexpr std::size_t kDatagrams = 50'000;
    saf::rt::wire::DatagramBuilder b;
    r.wire_build_ns_per_frame = time_row(kDatagrams * pack, [&] {
      std::uint64_t seq = 1;
      std::size_t p = 0;
      for (std::size_t d = 0; d < kDatagrams; ++d) {
        b.begin(0, 0, 0);
        for (std::size_t f = 0; f < pack; ++f, ++seq) {
          const auto& pl = payloads[p++ % payloads.size()];
          if (b.fits(pl.size())) {
            b.add_frame(saf::rt::wire::FrameKind::kData, seq, pl.data(),
                        pl.size());
          }
        }
        b.set_cum_ack(seq);
        keep(b.size());
      }
    });
  }
  {
    Scope s(spans, "replay.rt.wire.read", root);
    const auto dgrams = build_datagrams(4'096, 1, 1);
    constexpr std::size_t kIters = 12;
    std::size_t frames = 0;
    for (const auto& d : dgrams) {
      saf::rt::wire::DatagramReader rd;
      if (rd.init(d.data(), d.size())) frames += rd.frames();
    }
    r.wire_read_ns_per_frame = time_row(kIters * frames, [&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        for (const auto& d : dgrams) {
          saf::rt::wire::DatagramReader rd;
          if (!rd.init(d.data(), d.size())) continue;
          saf::rt::wire::FrameView f;
          while (rd.next(&f)) keep(f.len);
        }
      }
    });
  }
  {
    Scope s(spans, "replay.rt.dedup.fresh", root);
    constexpr std::size_t kOps = 1'000'000;
    r.dedup_fresh_ns = time_row(kOps, [&] {
      saf::rt::DedupWindow w(1024);
      std::uint64_t seq = 0;
      for (std::size_t i = 0; i < kOps; ++i) {
        // Mostly in-order first copies, with a retransmitted duplicate
        // every 32nd call.
        keep(w.fresh(i % 32 == 31 ? seq - 3 : ++seq));
      }
    });
  }
  {
    Scope s(spans, "replay.rt.link.process_datagram", root);
    saf::rt::WallClock clock;
    saf::rt::UdpLinkParams lp;
    lp.endpoints = 3;
    lp.epoch_gating = false;
    saf::rt::UdpLink link(0, 3, link_port, clock, lp);
    constexpr std::size_t kBatch = 4'096;
    std::uint64_t next_seq = 1;
    std::uint64_t delivered = 0;
    const saf::rt::UdpLink::DeliverFn deliver =
        [&delivered](saf::ProcessId, const std::uint8_t*, std::size_t len) {
          delivered += len;
        };
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
      // Fresh seqs every repetition, so every frame is a first copy.
      const auto dgrams = build_datagrams(kBatch, next_seq, 1);
      next_seq += kBatch * pack;
      const double t0 = mono_s();
      for (const auto& d : dgrams) link.process_datagram(d.data(), d.size(), deliver);
      ns.push_back((mono_s() - t0) * 1e9 / static_cast<double>(kBatch));
      link.flush();
    }
    keep(delivered);
    r.link_process_datagram_ns = link.ok() ? median(ns) : 0.0;
  }
  {
    Scope s(spans, "replay.svc.wire.submit_reply", root);
    constexpr std::size_t kOps = 400'000;
    std::vector<std::uint8_t> buf;
    buf.reserve(64);
    r.svc_submit_reply_ns = time_row(kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        saf::svc::Submit sm{i + 1, 1'000'000 + static_cast<std::int64_t>(i)};
        buf.clear();
        saf::svc::encode_submit(sm, &buf);
        saf::svc::Submit sd;
        keep(saf::svc::decode_submit(buf.data(), buf.size(), &sd));
        saf::svc::Reply rp{sd.req_seq, i, sd.value};
        buf.clear();
        saf::svc::encode_reply(rp, &buf);
        saf::svc::Reply rd;
        keep(saf::svc::decode_reply(buf.data(), buf.size(), &rd));
      }
    });
  }
  {
    Scope s(spans, "replay.svc.wire.snap_resp_decode", root);
    saf::svc::SnapResp chunk;
    chunk.start = 80'000;
    chunk.frontier = 80'000 + saf::svc::kSnapChunk;
    for (std::size_t i = 0; i < saf::svc::kSnapChunk; ++i) {
      chunk.decisions.push_back(1'000'000 + static_cast<std::int64_t>(i));
    }
    std::vector<std::uint8_t> buf;
    saf::svc::encode_snap_resp(chunk, &buf);
    constexpr std::size_t kOps = 100'000;
    saf::svc::SnapResp out;
    r.svc_snap_resp_decode_ns = time_row(kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        keep(saf::svc::decode_snap_resp(buf.data(), buf.size(), &out));
      }
    });
  }
  {
    Scope s(spans, "replay.sim.event_queue", root);
    // Steady state at 64 pending deliveries, successors 1..16 ticks out.
    constexpr std::size_t kOps = 1'000'000;
    saf::sim::EventQueue q;
    std::uint64_t seq = 0;
    saf::util::Rng rng(7);
    std::vector<saf::Time> delay(256);
    for (saf::Time& d : delay) d = 1 + rng.uniform(0, 15);
    for (std::size_t i = 0; i < 64; ++i) {
      q.push(saf::sim::Event{delay[i], seq++, 0, msgs.front(), {}, {}, -1});
    }
    r.event_queue_ns_per_op = time_row(kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        saf::sim::Event e = q.pop();
        keep(e.msg);
        e.time += delay[seq % delay.size()];
        e.seq = seq++;
        q.push(std::move(e));
      }
    });
  }
  {
    Scope s(spans, "replay.util.arena", root);
    constexpr std::size_t kOps = 1'000'000;
    saf::util::Arena arena;
    r.arena_ns_per_alloc = time_row(kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        keep(arena.create<saf::core::Phase2Msg>(1, 5, static_cast<int>(i)));
        if (i % 65'536 == 65'535) arena.reset();
      }
      arena.reset();
    });
  }
  const auto intersect_row = [&](int n) {
    std::vector<ProcSet> a, b;
    saf::util::Rng rng(11);
    for (int s = 0; s < 64; ++s) {
      ProcSet x, y;
      for (saf::ProcessId id = 0; id < n; ++id) {
        if (rng.uniform(0, 1) == 0) x.insert(id);
        if (rng.uniform(0, 3) != 0) y.insert(id);
      }
      x.insert(n - 1);
      y.insert(n - 1);
      a.push_back(x);
      b.push_back(y);
    }
    constexpr std::size_t kOps = 2'000'000;
    return time_row(kOps, [&] {
      int total = 0;
      for (std::size_t i = 0; i < kOps; ++i) {
        total += a[i % 64].count_intersection(b[(i + 17) % 64]);
      }
      keep(total);
    });
  };
  {
    Scope s(spans, "replay.util.procset", root);
    r.procset_intersect_w1_ns = intersect_row(64);
    r.procset_intersect_w16_ns = intersect_row(1024);
  }
  if (spans != nullptr) spans->close(root);
  return r;
}

void report_replay_rows(const ReplayRows& r, Outcome* out) {
  out->layer("rt.codec.encode_ns", r.codec_encode_ns, "ns");
  out->layer("rt.codec.decode_ns", r.codec_decode_ns, "ns");
  out->layer("rt.wire.build_ns_per_frame", r.wire_build_ns_per_frame, "ns");
  out->layer("rt.wire.read_ns_per_frame", r.wire_read_ns_per_frame, "ns");
  out->layer("rt.dedup.fresh_ns", r.dedup_fresh_ns, "ns");
  out->layer("rt.link.process_datagram_ns", r.link_process_datagram_ns, "ns");
  out->layer("svc.wire.submit_reply_ns", r.svc_submit_reply_ns, "ns");
  out->layer("svc.wire.snap_resp_decode_ns", r.svc_snap_resp_decode_ns, "ns");
  out->layer("sim.event_queue.ns_per_op", r.event_queue_ns_per_op, "ns");
  out->layer("util.arena.ns_per_alloc", r.arena_ns_per_alloc, "ns");
  out->layer("util.procset.ns_per_intersect_w1", r.procset_intersect_w1_ns,
             "ns");
  out->layer("util.procset.ns_per_intersect_w16", r.procset_intersect_w16_ns,
             "ns");
}

}  // namespace perfbench
