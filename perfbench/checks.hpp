// Correctness gates of the benchmark. Each check returns an empty string
// when it passes and a one-line reason when it fails, so the driver can
// count the failure against the round that produced it and print why.
// They are free functions over library types so test_checks.cpp can feed
// them deliberately broken inputs and prove that every gate rejects them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/runner.hpp"

namespace perfbench {

/// The global average a fault-free synchronous round of `cfg` must produce
/// for iteration `iter`: each trainer's synthetic gradient, cut into the
/// task's partitions with averaging weight 1, summed, and put through
/// Payload::average. Uses its own SyntheticGradientSource with the
/// deployment's seed, never the deployment's.
[[nodiscard]] std::vector<double> expected_global_average(const dfl::core::DeploymentConfig& cfg,
                                                          std::uint32_t iter);

/// Bit-for-bit equality of two aggregates (doubles compared as bit patterns).
[[nodiscard]] std::string check_aggregate(const std::vector<double>& expected,
                                          const std::vector<double>& actual);

/// Plausibility of an accepted global update under a lossy codec, where no
/// exact reference exists: every element finite with |v| <= bound.
[[nodiscard]] std::string check_update_bounded(const std::vector<double>& update, double bound);

/// A traced run is only usable when neither the span log nor the wire-record
/// ring dropped anything (dfl.obs.dropped_spans, dfl.net.trace_dropped).
[[nodiscard]] std::string check_trace_lossless(std::uint64_t dropped_spans,
                                               std::uint64_t trace_dropped);

/// Everything deterministic about one round: the hash of the decoded global
/// update, and a hash over every simulated quantity the round reports
/// (timestamps, bytes, per-actor records, RPC, codec and fault counters).
struct RoundFingerprint {
  std::uint64_t aggregate = 0;
  std::uint64_t simulated = 0;
  friend bool operator==(const RoundFingerprint&, const RoundFingerprint&) = default;
};

[[nodiscard]] RoundFingerprint fingerprint(const dfl::core::RoundMetrics& m,
                                           const std::vector<double>& global_update);

/// Two runs of one seed must agree on every round's fingerprint.
[[nodiscard]] std::string check_rerun(const std::vector<RoundFingerprint>& first,
                                      const std::vector<RoundFingerprint>& again);

}  // namespace perfbench
