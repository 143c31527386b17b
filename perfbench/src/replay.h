// The traced per-layer run: an in-process replay of a workload's
// request stream through the public layer entry points.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "knowledge/workload.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {

/// What one replay pass produced.
struct ReplayPass {
  /// Per replayed query, the wire bytes of its relation and meter.
  std::vector<std::string> relations;
  std::vector<std::string> meters;
  /// Wall time of the replay loop.
  int64_t loop_ns = 0;
  /// GALP request + response encode/decode, and response frame bytes.
  int64_t codec_ns = 0;
  int64_t response_bytes = 0;
  /// Model round trips (traced passes only: counted by TimingLlm).
  int64_t round_trips = 0;
  /// Store file traffic (traced churn passes only).
  StoreCounters store;
  double recovery_ms = 0.0;
  std::vector<Span> spans;
  /// First replayed answer that differs from the oracle, if any.
  std::string wrong;
};

/// Replays `order` (pool indexes) sequentially: untraced, or with spans
/// and the timing model/store wrappers. Every answer is checked against
/// `oracle`. A churn replay starts from a fresh copy of
/// `pristine_journal` in `store_dir`. Stops early after `time_limit_ns`
/// (0 = no limit).
galois::Result<ReplayPass> ReplayOnce(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload& workload,
    const std::vector<std::string>& pool, const Oracle& oracle,
    const std::vector<size_t>& order, const std::string& pristine_journal,
    const std::string& store_dir, int64_t store_max_bytes, bool traced,
    int64_t time_limit_ns);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
