// dflbench: the repository benchmark. Drives one workload through the
// public core::Deployment API for a fixed host-time budget, checks that the
// outputs are correct, and prints a human-readable report followed by one
// JSON result line (the last line of stdout).
//
//   dflbench --workload fig1-merge|fig2-verify|churn-256 --seed N
//            --seconds S --trace 0|1 [--scenario FILE] [--rev REV]
//
// A run is a sequence of *episodes*. An episode constructs a fresh
// Deployment from the seed, runs a fixed number of rounds (each timed on
// the host clock), and checks every round. Episodes repeat until the budget
// is spent, at least two of them, so every run also reruns its seed: each
// episode must reproduce the first one's aggregate hashes and simulated
// metrics exactly, and memory never grows with run length.
//
// --trace 0 reports the end-to-end metrics from untraced episodes; set-up
// samples (timed deployment constructions, setup_s) are taken before and
// between them.
// --trace 1 spends half the budget on untraced episodes (counters, layer
// attribution) and half on traced ones (span log and wire records, kept
// lossless), then fills the per-layer table. The table is measured from
// outside the library: it reads counters the library exposes, wraps the
// benchmark's own calls, and replays each layer's public functions on the
// workload's own inputs (probes).
//
// Host time is this process's wall clock; simulated time is the modelled
// network's clock, deterministic in the seed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common/cpu.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/codec.hpp"
#include "core/gradient_source.hpp"
#include "core/payload.hpp"
#include "core/runner.hpp"
#include "core/trace_export.hpp"
#include "crypto/backend.hpp"
#include "ipfs/cid.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

#ifndef DFL_BENCH_BUILD_TYPE
#define DFL_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dfl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  core::DeploymentConfig cfg;
  std::size_t rounds = 1;  // rounds per episode
  /// Fault-free synchronous rounds: the aggregate must equal the
  /// independently recomputed average bit for bit.
  bool exact_aggregate = false;
  /// Verifiable rounds: no rejected update, batch verification used.
  bool verifiable = false;
  /// Partitions with an accepted update / attempted must reach this.
  double completion_min = 1.0;
  /// Lossy codec: bound on |element| of an accepted global update.
  double update_bound = 0.0;
};

/// The fault-free workloads draw each host's link latency from the seed
/// (uniform 4.9-5.1 ms around the 5 ms default; bandwidths stay fixed), so
/// their simulated times are outputs of the seed's inputs rather than one
/// constant. The scenario carries only these link models: no faults.
sim::ScenarioSpec seeded_latencies() {
  sim::ScenarioSpec spec;
  spec.name = "perfbench-latency";
  sim::LinkModel link;
  link.latency_ms = sim::parse_distribution("uniform(4.9, 5.1)");
  link.has_latency = true;
  for (const char* role : {"nodes", "directory", "trainers", "aggregators"}) {
    spec.links[role] = link;
  }
  return spec;
}

Workload fig1_merge(std::uint64_t seed) {
  Workload w;
  w.name = "fig1-merge";
  core::DeploymentConfig& c = w.cfg;
  c.num_trainers = 16;
  c.num_partitions = 1;
  c.partition_elements = 162'500;  // 1.3 MB
  c.aggs_per_partition = 1;
  c.num_ipfs_nodes = 4;
  c.providers_per_agg = 4;  // the sqrt(16) optimum
  c.participant_mbps = 10.0;
  c.node_mbps = 10.0;
  c.scenario = seeded_latencies();
  c.options.merge_and_download = true;
  c.train_time = sim::from_seconds(1);
  c.schedule = core::Schedule{sim::from_seconds(600), sim::from_seconds(1200),
                              sim::from_millis(100)};
  c.seed = seed;
  w.rounds = 8;
  w.exact_aggregate = true;
  return w;
}

Workload fig2_verify(std::uint64_t seed) {
  Workload w;
  w.name = "fig2-verify";
  core::DeploymentConfig& c = w.cfg;
  c.num_trainers = 16;
  c.num_partitions = 4;
  c.partition_elements = 16'384;
  c.aggs_per_partition = 2;
  c.num_ipfs_nodes = 8;
  c.providers_per_agg = 8;
  c.participant_mbps = 20.0;
  c.node_mbps = 20.0;
  c.scenario = seeded_latencies();
  c.options.merge_and_download = false;
  c.options.update_replicas = 4;
  c.options.verifiable = true;
  c.options.batch_verify = true;
  c.options.audit_updates = true;
  c.options.crypto_threads = 2;
  c.train_time = sim::from_seconds(1);
  c.schedule = core::Schedule{sim::from_seconds(600), sim::from_seconds(1200),
                              sim::from_millis(100)};
  c.seed = seed;
  w.rounds = 4;
  w.exact_aggregate = true;
  w.verifiable = true;
  return w;
}

Workload churn_256(std::uint64_t seed, const std::string& scenario_path) {
  Workload w;
  w.name = "churn-256";
  const sim::ScenarioSpec spec = sim::load_scenario_file(scenario_path);
  core::apply_scenario(spec, w.cfg);
  core::DeploymentConfig& c = w.cfg;
  c.num_trainers = 256;
  c.options.merge_and_download = true;
  c.options.codec = core::Codec::kQuant;
  c.options.quant_bits = 8;
  c.seed = seed;
  w.rounds = 12;
  w.completion_min = 0.0;
  for (const auto& [key, bound] : spec.slo) {
    if (key == "completion_rate_min") w.completion_min = bound;
  }
  if (w.completion_min <= 0.0) {
    throw std::runtime_error(scenario_path + ": no [slo] completion_rate_min");
  }
  // Synthetic gradients are uniform in [-1, 1]; quantization moves an
  // element by at most one step of the payload's own scale.
  w.update_bound = 1.0 + 2.0 / static_cast<double>((1 << (c.options.quant_bits - 1)) - 1);
  return w;
}

// ---------------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------------

/// The deployment's gradient source, wrapped so the benchmark can time the
/// calls the protocol makes into it (core.gradient_ms). Same arguments as
/// the source Deployment builds when given none.
class TimedSource final : public core::GradientSource {
 public:
  explicit TimedSource(const core::DeploymentConfig& c)
      : inner_(c.partition_elements * c.num_partitions, c.train_time, c.seed,
               c.options.frac_bits) {}

  std::vector<std::int64_t> gradient(std::uint32_t trainer, std::uint32_t iter) override {
    const auto t0 = Clock::now();
    std::vector<std::int64_t> g = inner_.gradient(trainer, iter);
    seconds_ += seconds_since(t0);
    return g;
  }
  sim::TimeNs train_time(std::uint32_t trainer, std::uint32_t iter) override {
    return inner_.train_time(trainer, iter);
  }
  void apply_global_update(const std::vector<double>& avg, std::uint32_t iter) override {
    inner_.apply_global_update(avg, iter);
  }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  core::SyntheticGradientSource inner_;
  double seconds_ = 0;
};

/// Discards output, counting bytes (the Perfetto export is timed, not kept).
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};


struct RoundSample {
  std::size_t index = 0;  // round index within its episode
  bool failed = false;
  double wall_ms = 0;
  double gradient_ms = 0;
  long minor_faults = 0;
  directory::DirectoryStats dir;  // delta over the round
  core::RoundMetrics m;
  // Traced rounds only.
  std::size_t spans = 0;
  double analysis_ms = 0;
  double export_ms = 0;
};

struct Episode {
  std::vector<RoundSample> rounds;
  std::vector<perfbench::RoundFingerprint> fingerprints;
  double resident_mb = 0;  // block bytes alive when the episode ended
  std::uint64_t dropped_spans = 0;
  std::uint64_t trace_dropped = 0;
};

/// Counts gated operations (rounds) and keeps the first few failure reasons.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;
};

directory::DirectoryStats dir_delta(const directory::DirectoryStats& a,
                                    const directory::DirectoryStats& b) {
  directory::DirectoryStats d;
  d.announcements = b.announcements - a.announcements;
  d.announce_messages = b.announce_messages - a.announce_messages;
  d.polls = b.polls - a.polls;
  d.lookups = b.lookups - a.lookups;
  d.bytes_in = b.bytes_in - a.bytes_in;
  d.bytes_out = b.bytes_out - a.bytes_out;
  d.verifications = b.verifications - a.verifications;
  d.verifications_failed = b.verifications_failed - a.verifications_failed;
  return d;
}

class Runner {
 public:
  explicit Runner(Workload w) : w_(std::move(w)) {
    w_.cfg.shards = 1;  // the serial engine; $DFL_SHARDS must not leak in
  }

  [[nodiscard]] const Workload& workload() const { return w_; }
  [[nodiscard]] const Verdict& verdict() const { return verdict_; }

  Episode run_episode(bool traced) {
    Episode ep;
    auto source = std::make_unique<TimedSource>(w_.cfg);
    TimedSource* timed = source.get();
    auto d = std::make_unique<core::Deployment>(w_.cfg, std::move(source));
    if (d->engine() != nullptr) engine_isa_ = d->engine()->stats().isa;

    sim::Network& net = d->context().net;
    obs::Tracer& tracer = obs::Tracer::instance();
    if (traced) {
      tracer.set_span_limit(kTraceCap);
      obs::set_tracing(true);
      net.set_tracing(true);
      net.set_trace_limit(kTraceCap);
      core::name_host_tracks(net);
    }

    for (std::size_t r = 0; r < w_.rounds; ++r) {
      const auto iter = static_cast<std::uint32_t>(r);
      RoundSample s;
      s.index = r;
      if (traced) {
        tracer.clear();
        net.clear_trace();
      }
      const directory::DirectoryStats dir_before = d->directory().stats();
      const double grad_before = timed->seconds();
      const long faults_before = minor_faults();
      const auto w0 = Clock::now();
      s.m = d->run_round(iter);
      s.wall_ms = seconds_since(w0) * 1e3;
      s.minor_faults = minor_faults() - faults_before;
      s.gradient_ms = (timed->seconds() - grad_before) * 1e3;
      s.dir = dir_delta(dir_before, d->directory().stats());

      if (traced) {
        const obs::Tracer::Snapshot snap = tracer.snapshot();
        const std::vector<obs::WireSlice> wires = core::wire_slices(net);
        s.spans = snap.spans.size();
        const auto a0 = Clock::now();
        const obs::Analysis analysis = obs::analyze_critical_paths(snap, wires);
        s.analysis_ms = seconds_since(a0) * 1e3;
        if (analysis.rounds.empty()) fail(s, "traced round has no critical path");
        CountingBuf sink;
        std::ostream os(&sink);
        const auto e0 = Clock::now();
        obs::write_perfetto(os, snap, wires, net.trace().dropped());
        s.export_ms = seconds_since(e0) * 1e3;
        const obs::MetricsSnapshot reg = obs::Registry::global().snapshot();
        const std::uint64_t dropped = reg.counter_or("dfl.obs.dropped_spans", 0);
        const std::uint64_t wire_dropped = reg.counter_or("dfl.net.trace_dropped", 0);
        ep.dropped_spans += dropped;
        ep.trace_dropped += wire_dropped;
        if (auto why = perfbench::check_trace_lossless(dropped, wire_dropped); !why.empty()) {
          fail(s, why);
        }
      }

      check_round(s, d->last_global_update());
      ep.fingerprints.push_back(perfbench::fingerprint(s.m, d->last_global_update()));
      d->directory().gc_before(iter);  // as Deployment::run does
      ep.rounds.push_back(std::move(s));
    }
    ep.resident_mb =
        static_cast<double>(sim::datapath_stats().resident_block_bytes) / 1e6;

    if (traced) {
      obs::set_tracing(false);
      tracer.clear();
      tracer.set_span_limit(obs::kDefaultSpanLimit);
    }
    check_episode(ep);
    for (const RoundSample& s : ep.rounds) {
      ++verdict_.attempted;
      if (s.failed) ++verdict_.failed;
    }
    return ep;
  }

  /// Set-up samples (construct and destroy a deployment): at least `min`,
  /// more while they are cheap. Taken before the first episode and between
  /// episodes, so setup_s sees the same host conditions as the rounds.
  ///
  /// A construction without crypto takes microseconds, and its time depends
  /// on which CPU the scheduler keeps the process on (cores of a shared host
  /// differ by up to 1.7x). Such samples are pinned to each allowed CPU in
  /// turn, so a run's median covers every CPU. Verifiable deployments start
  /// worker threads, which would inherit the pin, so they are not pinned.
  void sample_setups(std::size_t min, std::size_t max, double seconds) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const bool rotate = !w_.cfg.options.verifiable &&
                        sched_getaffinity(0, sizeof allowed, &allowed) == 0 &&
                        CPU_COUNT(&allowed) > 1;
    std::vector<int> cpus;
    for (int c = 0; rotate && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    const auto t0 = Clock::now();
    for (std::size_t n = 0; n < min || (n < max && seconds_since(t0) < seconds); ++n) {
      if (rotate) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[next_cpu_++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
      }
      auto source = std::make_unique<TimedSource>(w_.cfg);
      const auto c0 = Clock::now();
      const core::Deployment d(w_.cfg, std::move(source));
      setups_.push_back(seconds_since(c0));
    }
    if (rotate) sched_setaffinity(0, sizeof allowed, &allowed);
  }

  [[nodiscard]] const std::vector<double>& setups() const { return setups_; }

  [[nodiscard]] const std::string& engine_isa() const { return engine_isa_; }

 private:
  static constexpr std::size_t kTraceCap = std::size_t{1} << 22;

  /// Marks the round failed (it counts once however many gates it fails).
  void fail(RoundSample& s, const std::string& why) {
    s.failed = true;
    if (verdict_.reasons.size() < 20) {
      verdict_.reasons.push_back("round " + std::to_string(s.index) + ": " + why);
    }
  }

  void check_round(RoundSample& s, const std::vector<double>& update) {
    const core::RoundMetrics& m = s.m;
    std::string why;
    if (w_.exact_aggregate) {
      if (!m.global_update_complete) {
        why = "global update incomplete";
      } else {
        auto it = expected_.find(m.iter);
        if (it == expected_.end()) {
          it = expected_.emplace(m.iter, perfbench::expected_global_average(w_.cfg, m.iter))
                   .first;
        }
        why = perfbench::check_aggregate(it->second, update);
      }
    }
    if (why.empty() && w_.verifiable) {
      if (m.rejected_updates != 0) {
        why = std::to_string(m.rejected_updates) + " rejected updates";
      } else if (m.crypto.batch_verifies == 0) {
        why = "no batch verification ran";
      }
    }
    if (why.empty() && w_.update_bound > 0) {
      if (m.faults.payloads_corrupted != 0) {
        why = std::to_string(m.faults.payloads_corrupted) + " payloads corrupted";
      } else if (m.global_update_complete) {
        why = perfbench::check_update_bounded(update, w_.update_bound);
      }
    }
    if (!why.empty()) fail(s, why);
  }

  /// Episode gates: the completion SLO, and the rerun of the seed.
  void check_episode(Episode& ep) {
    std::size_t complete = 0;
    std::size_t total = 0;
    for (const RoundSample& s : ep.rounds) {
      complete += s.m.partitions_complete;
      total += s.m.partitions_total;
    }
    const double rate =
        total == 0 ? 0.0 : static_cast<double>(complete) / static_cast<double>(total);
    if (rate < w_.completion_min) {
      for (RoundSample& s : ep.rounds) {
        fail(s, "episode completion_rate " + std::to_string(rate) + " below " +
                    std::to_string(w_.completion_min));
      }
    }
    if (first_.empty()) {
      first_ = ep.fingerprints;
    } else if (auto why = perfbench::check_rerun(first_, ep.fingerprints); !why.empty()) {
      for (RoundSample& s : ep.rounds) {
        if (s.index >= first_.size() || !(first_[s.index] == ep.fingerprints[s.index])) {
          fail(s, "rerun of the seed differs: " + why);
        }
      }
    }
  }

  Workload w_;
  Verdict verdict_;
  std::map<std::uint32_t, std::vector<double>> expected_;
  std::vector<perfbench::RoundFingerprint> first_;
  std::string engine_isa_;
  std::vector<double> setups_;
  std::size_t next_cpu_ = 0;
};

constexpr std::size_t kSetupMin = 5;
constexpr std::size_t kSetupMax = 201;
constexpr double kSetupSeconds = 0.5;

/// Runs episodes until `budget_s` is spent (predicting from the last
/// episode so a run does not overshoot), at least `min_episodes`; with
/// `setups`, takes set-up samples before and between them.
std::vector<Episode> run_phase(Runner& runner, bool traced, double budget_s,
                               std::size_t min_episodes, bool setups) {
  std::vector<Episode> out;
  const auto t0 = Clock::now();
  if (setups) runner.sample_setups(kSetupMin, kSetupMax, kSetupSeconds);
  double last = 0;
  for (;;) {
    const double elapsed = seconds_since(t0);
    if (out.size() >= min_episodes && elapsed + last > budget_s) break;
    const auto e0 = Clock::now();
    out.push_back(runner.run_episode(traced));
    if (setups) runner.sample_setups(1, kSetupMax / 4, kSetupSeconds / 10);
    last = seconds_since(e0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Probes: a layer's public functions replayed on the workload's inputs.
// ---------------------------------------------------------------------------

/// Median of `trials` timings of `fn`, each repeated until `min_s` passed;
/// returns seconds per call.
double time_per_call(const std::function<void()>& fn, int trials = 5, double min_s = 0.02) {
  std::vector<double> per_call;
  for (int t = 0; t < trials; ++t) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      fn();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < min_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(per_call);
}

/// Event-engine cost per event: schedule_at + run of `events` trivial
/// events in timestamp order, ns per event.
double probe_dispatch_ns(std::uint64_t events) {
  const std::uint64_t n = std::max<std::uint64_t>(events, 1000);
  std::uint64_t fired = 0;
  const double s = time_per_call(
      [&] {
        sim::Simulator sim;
        sim.reserve_events(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          sim.schedule_at(static_cast<sim::TimeNs>(i), [&fired] { ++fired; });
        }
        sim.run();
      },
      5, 0.0);
  if (fired == 0) throw std::logic_error("dispatch probe ran no events");
  return s * 1e9 / static_cast<double>(n);
}

/// Cid::of throughput on blocks of `block_bytes`, MB/s.
double probe_hash_mbps(std::size_t block_bytes) {
  block_bytes = std::max<std::size_t>(block_bytes, 64);
  Bytes block(block_bytes);
  Rng rng(0x68617368);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  volatile std::uint8_t sink = 0;  // keeps every digest observable
  const double s = time_per_call([&] { sink = sink ^ ipfs::Cid::of(block).digest()[0]; });
  return static_cast<double>(block_bytes) / s / 1e6;
}

/// A partition payload of the workload's shape (gradient slice + weight).
core::Payload partition_payload(const core::DeploymentConfig& c) {
  core::SyntheticGradientSource source(c.partition_elements * c.num_partitions, c.train_time,
                                       c.seed, c.options.frac_bits);
  const std::vector<std::int64_t> g = source.gradient(0, 0);
  core::Payload p;
  p.values.assign(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(c.partition_elements));
  p.values.push_back(1);
  return p;
}

struct CodecProbe {
  double encode_us = 0;
  double decode_us = 0;
  double fold_us = 0;
};

CodecProbe probe_codec(const core::DeploymentConfig& c) {
  const core::Payload p = partition_payload(c);
  const core::CodecConfig cc = core::codec_config(c.options);
  CodecProbe out;
  Bytes wire;
  out.encode_us = time_per_call([&] { wire = core::encode_payload(p, cc, 7); }) * 1e6;
  std::size_t n = 0;
  out.decode_us = time_per_call([&] { n += core::decode_payload(wire, cc).values.size(); }) * 1e6;
  core::Payload acc = p;
  out.fold_us = time_per_call([&] { acc = core::Payload::add(acc, p); }) * 1e6;
  if (n == 0 || acc.values.empty()) throw std::logic_error("codec probe decoded nothing");
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed in the human report only
};

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<double> walls(const std::vector<Episode>& eps,
                          const std::function<bool(std::size_t)>& keep = nullptr) {
  std::vector<double> v;
  for (const Episode& ep : eps) {
    for (const RoundSample& s : ep.rounds) {
      if (!keep || keep(s.index)) v.push_back(s.wall_ms);
    }
  }
  return v;
}

/// Drift within an episode: median host time of the first and of the last
/// quarter of each episode's rounds, and the block bytes left resident.
std::vector<Metric> drift(const Workload& w, const std::vector<Episode>& eps) {
  const std::size_t quarter = std::max<std::size_t>(1, w.rounds / 4);
  const std::vector<double> q1 = walls(eps, [&](std::size_t i) { return i < quarter; });
  const std::vector<double> q4 =
      walls(eps, [&](std::size_t i) { return i + quarter >= w.rounds; });
  double resident = 0;
  for (const Episode& ep : eps) resident = std::max(resident, ep.resident_mb);
  return {{"proc.round_wall_q1_ms", median(q1), "ms",
           "first " + std::to_string(quarter) + " of " + std::to_string(w.rounds) +
               " rounds per episode, n=" + std::to_string(q1.size())},
          {"proc.round_wall_q4_ms", median(q4), "ms",
           "last " + std::to_string(quarter) + " of " + std::to_string(w.rounds) +
               " rounds per episode, n=" + std::to_string(q4.size())},
          {"ipfs.resident_mb", resident, "MB", "block bytes alive at episode end"}};
}

std::vector<Metric> end_to_end(const std::vector<Episode>& eps,
                               const std::vector<double>& setups, double rss_mb) {
  std::vector<Metric> out;
  const std::vector<double> all = walls(eps);
  double total_s = 0;
  for (const double ms : all) total_s += ms / 1e3;

  // Simulated metrics: medians (and the maximum) over the first episode's
  // rounds; every later episode is checked to be identical to it. Medians,
  // because churn rounds are bimodal: retry-deadline rounds, then steady.
  std::vector<double> sim_round;
  std::vector<double> agg;
  std::vector<double> upload;
  std::vector<double> rx;
  for (const RoundSample& s : eps.front().rounds) {
    if (s.m.round_done >= 0) sim_round.push_back(sim::to_seconds(s.m.round_done - s.m.round_start));
    if (const double a = s.m.mean_aggregation_delay_s(); a >= 0) agg.push_back(a);
    if (const double u = s.m.mean_upload_delay_s(); u >= 0) upload.push_back(u);
    rx.push_back(s.m.mean_aggregator_bytes() / 1e6);
  }
  std::size_t complete = 0;
  std::size_t total = 0;
  for (const Episode& ep : eps) {
    for (const RoundSample& s : ep.rounds) {
      complete += s.m.partitions_complete;
      total += s.m.partitions_total;
    }
  }
  const std::string n = "n=" + std::to_string(all.size()) + " rounds in " +
                        std::to_string(eps.size()) + " episodes";
  out.push_back({"setup_s", median(setups), "s", "median of " + std::to_string(setups.size())});
  out.push_back({"round_wall_p50_ms", median(all), "ms", n});
  out.push_back({"rounds_per_s", total_s > 0 ? static_cast<double>(all.size()) / total_s : 0,
                 "1/s", n});
  out.push_back({"peak_rss_mb", rss_mb, "MB", "ru_maxrss"});
  out.push_back({"sim_round_p50_s", median(sim_round), "s",
                 "simulated, " + std::to_string(sim_round.size()) + " rounds"});
  out.push_back({"sim_round_max_s",
                 sim_round.empty() ? 0 : *std::max_element(sim_round.begin(), sim_round.end()),
                 "s", "simulated"});
  out.push_back({"agg_delay_s", median(agg), "s", "simulated, mean_aggregation_delay_s"});
  out.push_back({"upload_delay_s", median(upload), "s", "simulated, mean_upload_delay_s"});
  out.push_back({"agg_rx_mb", median(rx), "MB", "simulated, per aggregator per round"});
  out.push_back({"completion_rate",
                 total == 0 ? 0 : static_cast<double>(complete) / static_cast<double>(total),
                 "ratio", std::to_string(complete) + "/" + std::to_string(total) + " partitions"});
  return out;
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<Episode>& plain,
                              const std::vector<Episode>& traced) {
  // Per-round means over the untraced episodes.
  double rounds = 0;
  double wall_ms = 0, events = 0, hashed = 0, hashed_blocks = 0, hits = 0, copied = 0;
  double commits = 0, verifies = 0, batch = 0, elements = 0, commit_ms = 0, verify_ms = 0;
  double encodes = 0, raw = 0, encoded = 0, gradient_ms = 0, folds = 0, merges = 0;
  double fallbacks = 0, dir_msgs = 0, polls = 0, dir_in = 0, faults = 0;
  ipfs::RetryStats rpc;
  for (const Episode& ep : plain) {
    for (const RoundSample& s : ep.rounds) {
      const core::RoundMetrics& m = s.m;
      rounds += 1;
      wall_ms += s.wall_ms;
      events += static_cast<double>(m.datapath.sim_events);
      hashed += static_cast<double>(m.datapath.stats.bytes_hashed);
      hashed_blocks += static_cast<double>(m.datapath.stats.blocks_hashed);
      hits += static_cast<double>(m.datapath.stats.cid_cache_hits);
      copied += static_cast<double>(m.datapath.stats.bytes_copied);
      commits += static_cast<double>(m.crypto.commits);
      verifies += static_cast<double>(m.crypto.verifies);
      batch += static_cast<double>(m.crypto.batch_verifies);
      elements += static_cast<double>(m.crypto.committed_elements);
      commit_ms += static_cast<double>(m.crypto.commit_wall_ns) / 1e6;
      verify_ms += static_cast<double>(m.crypto.verify_wall_ns) / 1e6;
      encodes += static_cast<double>(m.codec.encodes);
      raw += static_cast<double>(m.codec.raw_bytes);
      encoded += static_cast<double>(m.codec.encoded_bytes);
      gradient_ms += s.gradient_ms;
      for (const core::AggregatorRecord& a : m.aggregators) {
        folds += static_cast<double>(a.gradients_aggregated);
        merges += static_cast<double>(a.merge_requests);
        fallbacks += static_cast<double>(a.merge_fallbacks);
      }
      rpc += m.rpc_totals();
      dir_msgs += static_cast<double>(s.dir.announce_messages + s.dir.polls + s.dir.lookups);
      polls += static_cast<double>(s.dir.polls);
      dir_in += static_cast<double>(s.dir.bytes_in);
      faults += static_cast<double>(s.minor_faults);
    }
  }
  const auto per = [&](double total) { return rounds > 0 ? total / rounds : 0.0; };
  const double round_ms = per(wall_ms);

  // Probes on this workload's shapes.
  const double dispatch_ns = probe_dispatch_ns(static_cast<std::uint64_t>(per(events)));
  // Mean hashed block; a dense partition when the round hashed nothing.
  const std::size_t block_bytes =
      hashed_blocks > 0 ? static_cast<std::size_t>(hashed / hashed_blocks)
                        : core::Payload::wire_size(w.cfg.partition_elements + 1);
  const double hash_mbps = probe_hash_mbps(block_bytes);
  const CodecProbe codec = probe_codec(w.cfg);

  const double sim_ms = per(events) * dispatch_ns / 1e6;
  const double hashed_mb = per(hashed) / 1e6;
  const double hash_ms = hashed_mb / hash_mbps * 1e3;
  // Receivers decode every encoded gradient once before folding it.
  const double codec_ms = per(encodes) * (codec.encode_us + codec.decode_us) / 1e3;
  const double fold_ms = per(folds) * codec.fold_us / 1e3;
  const double crypto_ms = per(commit_ms) + per(verify_ms);
  const double attributed = sim_ms + hash_ms + crypto_ms + codec_ms + per(gradient_ms) + fold_ms;

  // Traced episodes.
  double traced_rounds = 0, spans = 0, analysis_ms = 0, export_ms = 0;
  std::uint64_t dropped = 0;
  sim::TimeNs cp_total = 0, cp_train = 0, cp_crypto = 0, cp_wire = 0, cp_queue = 0,
              cp_stale = 0, cp_merge = 0;
  for (const Episode& ep : traced) {
    dropped += ep.dropped_spans + ep.trace_dropped;
    for (const RoundSample& s : ep.rounds) {
      traced_rounds += 1;
      spans += static_cast<double>(s.spans);
      analysis_ms += s.analysis_ms;
      export_ms += s.export_ms;
      const core::CriticalPathRecord& cp = s.m.critical_path;
      cp_total += cp.total_ns;
      cp_train += cp.train_ns;
      cp_crypto += cp.crypto_ns;
      cp_wire += cp.wire_ns;
      cp_queue += cp.queue_ns;
      cp_stale += cp.stale_ns;
      cp_merge += cp.merge_ns;
    }
  }
  const auto tper = [&](double total) { return traced_rounds > 0 ? total / traced_rounds : 0.0; };
  const auto cp_pct = [&](sim::TimeNs ns) {
    return cp_total > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(cp_total) : 0.0;
  };
  const double plain_p50 = median(walls(plain));
  const double traced_p50 = median(walls(traced));
  const std::uint64_t attempts = rpc.attempts;
  // attempts = operations + retries; an operation succeeds on one attempt
  // unless it was given up.
  const std::uint64_t failed_attempts = std::min(attempts, rpc.retries + rpc.giveups);
  const std::uint64_t succeeded = attempts - failed_attempts;

  std::vector<Metric> out;
  out.push_back({"sim.events", per(events), "count", "per round"});
  out.push_back({"sim.events_per_s", wall_ms > 0 ? events / (wall_ms / 1e3) : 0, "1/s", ""});
  out.push_back({"sim.dispatch_ns", dispatch_ns, "ns", "probe: schedule_at + run"});
  out.push_back({"sim.dispatch_ms", sim_ms, "ms", "events x dispatch_ns"});
  out.push_back({"ipfs.hashed_mb", hashed_mb, "MB", "per round"});
  out.push_back({"ipfs.blocks_hashed", per(hashed_blocks), "count", "per round"});
  out.push_back({"ipfs.cid_hit_ratio", hits + hashed_blocks > 0 ? hits / (hits + hashed_blocks) : 0,
                 "ratio", "hits / (hits + hashes)"});
  out.push_back({"ipfs.hash_mbps", hash_mbps, "MB/s",
                 "probe: Cid::of on " + std::to_string(block_bytes) + " B blocks"});
  out.push_back({"ipfs.hash_ms", hash_ms, "ms", "hashed_mb / hash_mbps"});
  out.push_back({"ipfs.copied_mb", per(copied) / 1e6, "MB", "per round"});
  out.push_back({"rpc.attempts", per(static_cast<double>(rpc.attempts)), "count", "per round"});
  out.push_back({"rpc.retries", per(static_cast<double>(rpc.retries)), "count", "per round"});
  out.push_back({"rpc.timeouts", per(static_cast<double>(rpc.timeouts)), "count", "per round"});
  out.push_back({"rpc.failovers", per(static_cast<double>(rpc.failovers)), "count", "per round"});
  out.push_back({"rpc.giveups", per(static_cast<double>(rpc.giveups)), "count", "per round"});
  out.push_back({"rpc.success_ratio",
                 attempts == 0 ? 1.0
                               : static_cast<double>(succeeded) / static_cast<double>(attempts),
                 "ratio", "successful attempts / attempts"});
  out.push_back({"crypto.commits", per(commits), "count", "per round"});
  out.push_back({"crypto.verifies", per(verifies), "count", "per round"});
  out.push_back({"crypto.batch_verifies", per(batch), "count", "per round"});
  out.push_back({"crypto.committed_elements", per(elements), "count", "per round"});
  out.push_back({"crypto.commit_ms", per(commit_ms), "ms", "Engine::stats() delta"});
  out.push_back({"crypto.verify_ms", per(verify_ms), "ms", "Engine::stats() delta"});
  out.push_back({"crypto.commit_ns_per_element", elements > 0 ? commit_ms * 1e6 / elements : 0,
                 "ns", ""});
  out.push_back({"codec.encodes", per(encodes), "count", "per round"});
  out.push_back({"codec.encoded_mb", per(encoded) / 1e6, "MB", "per round"});
  out.push_back({"codec.compression", encoded > 0 ? raw / encoded : 1.0, "ratio", "raw / encoded"});
  out.push_back({"codec.encode_us", codec.encode_us, "us", "probe: encode_payload"});
  out.push_back({"codec.decode_us", codec.decode_us, "us", "probe: decode_payload"});
  out.push_back({"codec.ms", codec_ms, "ms", "encodes x (encode_us + decode_us)"});
  out.push_back({"core.gradient_ms", per(gradient_ms), "ms", "timed GradientSource::gradient"});
  out.push_back({"core.fold_ms", fold_ms, "ms", "aggregated gradients x Payload::add probe"});
  out.push_back({"core.merge_requests", per(merges), "count", "per round"});
  out.push_back({"core.merge_fallbacks", per(fallbacks), "count", "per round"});
  out.push_back({"dir.messages", per(dir_msgs), "count", "announce messages + polls + lookups"});
  out.push_back({"dir.polls", per(polls), "count", "per round"});
  out.push_back({"dir.kb_in", per(dir_in) / 1e3, "kB", "per round"});
  out.push_back({"obs.spans", tper(spans), "count", "per traced round"});
  out.push_back({"obs.dropped", static_cast<double>(dropped), "count",
                 "dropped spans + dropped wire records"});
  out.push_back({"obs.analysis_ms", tper(analysis_ms), "ms", "analyze_critical_paths"});
  out.push_back({"obs.export_ms", tper(export_ms), "ms", "write_perfetto"});
  out.push_back({"obs.overhead_pct", plain_p50 > 0 ? 100.0 * (traced_p50 / plain_p50 - 1.0) : 0,
                 "%", "traced vs untraced median round"});
  out.push_back({"cp.train_pct", cp_pct(cp_train), "%", "simulated critical path"});
  out.push_back({"cp.crypto_pct", cp_pct(cp_crypto), "%", ""});
  out.push_back({"cp.wire_pct", cp_pct(cp_wire), "%", ""});
  out.push_back({"cp.queue_pct", cp_pct(cp_queue), "%", ""});
  out.push_back({"cp.stale_pct", cp_pct(cp_stale), "%", ""});
  out.push_back({"cp.merge_pct", cp_pct(cp_merge), "%", ""});
  out.push_back({"proc.minor_faults", per(faults), "count", "per round"});
  for (Metric& m : drift(w, plain)) out.push_back(std::move(m));
  out.push_back({"layer.round_ms", round_ms, "ms", "mean untraced round"});
  out.push_back({"layer.attributed_pct", round_ms > 0 ? 100.0 * attributed / round_ms : 0, "%",
                 "rows above / round"});
  out.push_back({"layer.other_ms", round_ms - attributed, "ms", "round minus rows above"});
  return out;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scenario = "perfbench/mobile-churn.scn";
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--scenario") {
      a.scenario = v;
    } else if (k == "--rev") {
      a.rev = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

Workload make_workload(const Args& a) {
  if (a.workload == "fig1-merge") return fig1_merge(a.seed);
  if (a.workload == "fig2-verify") return fig2_verify(a.seed);
  if (a.workload == "churn-256") return churn_256(a.seed, a.scenario);
  throw std::invalid_argument("unknown workload '" + a.workload +
                              "' (fig1-merge, fig2-verify, churn-256)");
}

int run(const Args& args) {
  Runner runner(make_workload(args));
  const Workload& w = runner.workload();
  const auto start = Clock::now();

  std::vector<Episode> plain;
  std::vector<Episode> traced;
  std::vector<Metric> metrics;
  if (args.trace) {
    plain = run_phase(runner, false, args.seconds / 2, 1, false);
    traced = run_phase(runner, true, args.seconds - seconds_since(start), 1, false);
    metrics = per_layer(w, plain, traced);
  } else {
    plain = run_phase(runner, false, args.seconds, 2, true);
    metrics = end_to_end(plain, runner.setups(), peak_rss_mb());
  }
  const Verdict& verdict = runner.verdict();

  std::printf("dflbench %s seed=%llu trace=%d seconds=%.1f (ran %.1f s)\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, args.seconds,
              seconds_since(start));
  std::printf("host: isa=%s backend=%s engine_isa=%s cpu=%s nproc=%u build=%s rev=%s "
              "DFL_THREADS=%s\n",
              crypto::active_isa(), crypto::backend_name(crypto::active_backend()),
              runner.engine_isa().empty() ? "-" : runner.engine_isa().c_str(),
              cpu_feature_string().c_str(), std::thread::hardware_concurrency(),
              DFL_BENCH_BUILD_TYPE, args.rev.c_str(), std::getenv("DFL_THREADS"));
  const auto print = [](const Metric& m) {
    std::printf("  %-28s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  };
  for (const Metric& m : metrics) print(m);
  if (!args.trace) {
    std::printf("simulated round times (s):");
    for (const RoundSample& s : plain.front().rounds) {
      std::printf(" %.2f", sim::to_seconds(s.m.round_done - s.m.round_start));
    }
    std::printf("\nepisode median round times (ms):");
    for (const Episode& ep : plain) {
      std::vector<double> ms;
      for (const RoundSample& s : ep.rounds) ms.push_back(s.wall_ms);
      std::printf(" %.1f", median(ms));
    }
    std::printf("\ndrift (reported, not gated; per-layer metrics of --trace 1):\n");
    for (const Metric& m : drift(w, plain)) print(m);
  }
  std::printf("gate: %llu rounds attempted, %llu failed\n",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed));
  for (const std::string& why : verdict.reasons) std::fprintf(stderr, "FAIL %s\n", why.c_str());

  std::string json = "{\"correct\": ";
  json += verdict.failed == 0 && verdict.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted);
  json += ", \"failed\": " + std::to_string(verdict.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One process, at most two worker threads; quiet logs (RPC give-ups are
  // counted through rpc.giveups instead of printed).
  setenv("DFL_THREADS", "2", 1);
  set_log_level(LogLevel::kError);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dflbench: %s\n", e.what());
    return 1;
  }
}
