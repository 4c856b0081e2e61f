// Self-tests of the benchmark's correctness gates: each gate must accept a
// real, healthy result and reject a deliberately broken one (a perturbed
// aggregate, a trace that dropped spans or wire records, a rerun whose
// hashes differ). Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dfl;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

core::DeploymentConfig small_config(std::uint64_t seed) {
  core::DeploymentConfig c;
  c.num_trainers = 4;
  c.num_partitions = 2;
  c.partition_elements = 512;
  c.aggs_per_partition = 1;
  c.num_ipfs_nodes = 2;
  c.providers_per_agg = 2;
  c.options.merge_and_download = true;
  c.shards = 1;
  c.seed = seed;
  return c;
}

struct Result {
  std::vector<double> update;
  perfbench::RoundFingerprint fp;
};

Result run_round(const core::DeploymentConfig& c) {
  core::Deployment d(c);
  const core::RoundMetrics m = d.run_round(0);
  return Result{d.last_global_update(), perfbench::fingerprint(m, d.last_global_update())};
}

void test_aggregate_gate() {
  const core::DeploymentConfig c = small_config(3);
  const Result r = run_round(c);
  const std::vector<double> expected = perfbench::expected_global_average(c, 0);
  expect(perfbench::check_aggregate(expected, r.update).empty(),
         "aggregate gate accepts the real round");

  std::vector<double> perturbed = r.update;
  perturbed[100] = std::nextafter(perturbed[100], 2.0);  // one ulp
  expect(!perfbench::check_aggregate(expected, perturbed).empty(),
         "aggregate gate rejects a one-ulp perturbation");
  perturbed = r.update;
  perturbed.pop_back();
  expect(!perfbench::check_aggregate(expected, perturbed).empty(),
         "aggregate gate rejects a short aggregate");
  expect(!perfbench::check_aggregate(perfbench::expected_global_average(small_config(4), 0),
                                     r.update)
              .empty(),
         "aggregate gate rejects another seed's average");
}

void test_bounded_gate() {
  expect(perfbench::check_update_bounded({0.5, -1.0, 1.0}, 1.01).empty(),
         "bound gate accepts in-range values");
  expect(!perfbench::check_update_bounded({0.5, 7.0}, 1.01).empty(),
         "bound gate rejects an out-of-range value");
  expect(!perfbench::check_update_bounded({std::numeric_limits<double>::quiet_NaN()}, 1.01)
              .empty(),
         "bound gate rejects NaN");
}

/// Runs one traced round under the given caps and returns the registry's
/// drop counters, the ones the benchmark gates on.
std::pair<std::uint64_t, std::uint64_t> traced_drops(std::size_t span_cap,
                                                     std::size_t wire_cap) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_span_limit(span_cap);
  core::Deployment d(small_config(5));
  obs::set_tracing(true);
  d.context().net.set_tracing(true);
  d.context().net.set_trace_limit(wire_cap);
  (void)d.run_round(0);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  obs::set_tracing(false);
  const std::pair<std::uint64_t, std::uint64_t> out{
      snap.counter_or("dfl.obs.dropped_spans", 0), snap.counter_or("dfl.net.trace_dropped", 0)};
  tracer.clear();
  tracer.set_span_limit(obs::kDefaultSpanLimit);
  return out;
}

void test_trace_gate() {
  const auto [spans_ok, wires_ok] = traced_drops(std::size_t{1} << 20, std::size_t{1} << 20);
  expect(perfbench::check_trace_lossless(spans_ok, wires_ok).empty(),
         "trace gate accepts a lossless trace");
  const auto [spans_cut, wires_full] = traced_drops(8, std::size_t{1} << 20);
  expect(spans_cut > 0 && !perfbench::check_trace_lossless(spans_cut, wires_full).empty(),
         "trace gate rejects a trace that dropped spans");
  const auto [spans_full, wires_cut] = traced_drops(std::size_t{1} << 20, 4);
  expect(wires_cut > 0 && !perfbench::check_trace_lossless(spans_full, wires_cut).empty(),
         "trace gate rejects a trace that dropped wire records");
}

void test_rerun_gate() {
  const Result a = run_round(small_config(7));
  const Result b = run_round(small_config(7));
  expect(perfbench::check_rerun({a.fp}, {b.fp}).empty(),
         "rerun gate accepts two runs of one seed");
  perfbench::RoundFingerprint bad = b.fp;
  bad.aggregate ^= 1;
  expect(!perfbench::check_rerun({a.fp}, {bad}).empty(),
         "rerun gate rejects a mismatched aggregate hash");
  bad = b.fp;
  bad.simulated ^= 1;
  expect(!perfbench::check_rerun({a.fp}, {bad}).empty(),
         "rerun gate rejects mismatched simulated metrics");
  expect(!perfbench::check_rerun({a.fp}, {b.fp, b.fp}).empty(),
         "rerun gate rejects a different round count");
  core::DeploymentConfig slower = small_config(7);
  slower.participant_mbps = 5.0;
  const Result c = run_round(slower);
  expect(c.fp.aggregate == a.fp.aggregate && !perfbench::check_rerun({a.fp}, {c.fp}).empty(),
         "rerun gate rejects a run whose simulated timing differs");
}

}  // namespace

int main() {
  set_log_level(LogLevel::kError);
  test_aggregate_gate();
  test_bounded_gate();
  test_trace_gate();
  test_rerun_gate();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
