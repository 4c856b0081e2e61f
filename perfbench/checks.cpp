#include "checks.hpp"

#include <cmath>
#include <cstring>

#include "core/gradient_source.hpp"
#include "core/payload.hpp"
#include "core/task_spec.hpp"

namespace perfbench {

namespace {

using namespace dfl;

/// FNV-1a over the bytes of trivially copyable values.
class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_rpc(const ipfs::RetryStats& r) {
    add(r.attempts);
    add(r.retries);
    add(r.timeouts);
    add(r.failovers);
    add(r.giveups);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::vector<double> expected_global_average(const core::DeploymentConfig& cfg,
                                            std::uint32_t iter) {
  const std::size_t num_params = cfg.partition_elements * cfg.num_partitions;
  const core::TaskSpec spec(num_params, cfg.num_partitions, cfg.num_trainers);
  core::SyntheticGradientSource source(num_params, cfg.train_time, cfg.seed,
                                       cfg.options.frac_bits);
  // Summed here rather than with Payload::add, so a defect in the
  // library's fold cannot hide by also shaping the reference.
  std::vector<core::Payload> sums(cfg.num_partitions);
  for (std::size_t p = 0; p < cfg.num_partitions; ++p) {
    sums[p].values.assign(spec.partition_size(p) + 1, 0);
  }
  for (std::uint32_t t = 0; t < cfg.num_trainers; ++t) {
    const std::vector<std::int64_t> grad = source.gradient(t, iter);
    for (std::size_t p = 0; p < cfg.num_partitions; ++p) {
      const std::size_t first = spec.partition_range(p).first;
      std::vector<std::int64_t>& sum = sums[p].values;
      for (std::size_t i = 0; i + 1 < sum.size(); ++i) sum[i] += grad[first + i];
      sum.back() += 1;  // averaging weight, one per trainer
    }
  }
  std::vector<double> out;
  out.reserve(num_params);
  for (const core::Payload& s : sums) {
    const std::vector<double> avg = s.average(cfg.options.frac_bits);
    out.insert(out.end(), avg.begin(), avg.end());
  }
  return out;
}

std::string check_aggregate(const std::vector<double>& expected,
                            const std::vector<double>& actual) {
  if (actual.size() != expected.size()) {
    return "aggregate has " + std::to_string(actual.size()) + " elements, expected " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
      return "aggregate element " + std::to_string(i) + " is " + std::to_string(actual[i]) +
             ", expected " + std::to_string(expected[i]);
    }
  }
  return {};
}

std::string check_update_bounded(const std::vector<double>& update, double bound) {
  for (std::size_t i = 0; i < update.size(); ++i) {
    if (!std::isfinite(update[i]) || std::fabs(update[i]) > bound) {
      return "update element " + std::to_string(i) + " = " + std::to_string(update[i]) +
             " outside [-" + std::to_string(bound) + ", " + std::to_string(bound) + "]";
    }
  }
  return {};
}

std::string check_trace_lossless(std::uint64_t dropped_spans, std::uint64_t trace_dropped) {
  if (dropped_spans == 0 && trace_dropped == 0) return {};
  return "trace is truncated: dfl.obs.dropped_spans=" + std::to_string(dropped_spans) +
         " dfl.net.trace_dropped=" + std::to_string(trace_dropped);
}

RoundFingerprint fingerprint(const core::RoundMetrics& m,
                             const std::vector<double>& global_update) {
  RoundFingerprint fp;
  Fnv agg;
  for (const double v : global_update) agg.add(v);
  agg.add(global_update.size());
  fp.aggregate = agg.value();

  Fnv h;
  h.add(m.iter);
  h.add(m.round_start);
  h.add(m.first_gradient_announce);
  h.add(m.round_done);
  h.add(m.rejected_updates);
  h.add(m.partitions_complete);
  h.add(m.partitions_total);
  h.add(m.datapath.sim_events);
  for (const core::TrainerRecord& t : m.trainers) {
    h.add(t.upload_delay_total_s);
    h.add(t.uploads);
    h.add(t.model_ready_at);
    h.add(t.aborted);
    h.add(t.offline);
    h.add(t.update_missing);
    h.add(t.audit_failed);
    h.add_rpc(t.rpc);
  }
  for (const core::AggregatorRecord& a : m.aggregators) {
    h.add(a.partition);
    h.add(a.gather_done_at);
    h.add(a.sync_done_at);
    h.add(a.global_written_at);
    h.add(a.bytes_received);
    h.add(a.gradients_aggregated);
    h.add(a.merge_requests);
    h.add(a.merge_fallbacks);
    h.add(a.covered_for_peer);
    h.add(a.rejected_by_directory);
    h.add_rpc(a.rpc);
  }
  h.add(m.codec.encodes);
  h.add(m.codec.raw_bytes);
  h.add(m.codec.encoded_bytes);
  h.add(m.codec.error_sq);
  h.add(m.faults.crashes);
  h.add(m.faults.restarts);
  h.add(m.faults.transfers_dropped);
  h.add(m.faults.payloads_corrupted);
  h.add(m.faults.transfers_jittered);
  fp.simulated = h.value();
  return fp;
}

std::string check_rerun(const std::vector<RoundFingerprint>& first,
                        const std::vector<RoundFingerprint>& again) {
  if (first.size() != again.size()) {
    return "rerun ran " + std::to_string(again.size()) + " rounds, first run " +
           std::to_string(first.size());
  }
  for (std::size_t r = 0; r < first.size(); ++r) {
    if (first[r].aggregate != again[r].aggregate) {
      return "rerun round " + std::to_string(r) + ": aggregate hash differs";
    }
    if (first[r].simulated != again[r].simulated) {
      return "rerun round " + std::to_string(r) + ": simulated metrics differ";
    }
  }
  return {};
}

}  // namespace perfbench
