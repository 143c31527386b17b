// The benchmark's workloads: server configuration, query pools and the
// seeded request streams, plus the answer oracle every response is
// checked against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/database.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"
#include "stats.h"
#include "store/store_env.h"

namespace perfbench {

/// How a response's per-query meter is compared with the reference.
enum class MeterCheck {
  /// Byte for byte: the meter is a function of the SQL alone.
  kExact,
  /// Counts byte for byte; simulated latency to 1e-9 relative. A
  /// cluster sums per-shard meters, so its floating-point sum rounds
  /// differently from the single-node tap's running sum.
  kShardSum,
  /// Not compared: cache history decides the meter (churn).
  kNone,
};

/// How one workload's server is configured. Every field is fixed per
/// workload; the seed only changes the request stream (and the churn
/// pool), never the configuration.
struct WorkloadSpec {
  std::string name;
  bool materialisation_cache = false;
  bool prompt_cache = false;
  bool store = false;
  /// Wall delay the simulated backend adds to every round trip.
  double llm_delay_ms = 0.0;
  /// galoisd nodes behind a coordinating Database in the load process;
  /// 0 means one server answering GALP queries directly.
  int nodes = 0;
  /// Run the pool once on the server before serving (caches warmed).
  bool warm_up = false;
  /// The pool is seeded literal variants of the builtin mix's filtered
  /// queries, drawn with replacement; otherwise it is the builtin mix,
  /// sent in seeded permutations.
  bool literal_variants = false;
  /// A noise-free model profile instead of the paper's ChatGPT profile.
  /// Predicate subsumption is answer-preserving only under a
  /// deterministic model (the cache's documented assumption), so the
  /// workload that exercises it uses one.
  bool noise_free_model = false;
  /// How response meters are checked (relations are always compared
  /// byte for byte).
  MeterCheck meter_check = MeterCheck::kExact;
};

/// warm, cold, churn or cluster; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The simulated model seed. Fixed: the workload seed must not change
/// what the model answers.
constexpr uint64_t kModelSeed = 7;
/// Materialisation cache capacity (DatabaseOptions' default).
constexpr size_t kCacheEntries = 64;
/// Variants in the churn pool.
constexpr size_t kChurnPoolSize = 240;

/// The distinct SQL texts a workload draws from (see
/// WorkloadSpec::literal_variants).
std::vector<std::string> BuildPool(const WorkloadSpec& spec,
                                   const galois::knowledge::SpiderLikeWorkload&
                                       workload,
                                   uint64_t seed);

/// The request stream: indexes into the pool, a pure function of the
/// seed — back-to-back seeded permutations of the pool, or uniform draws
/// with replacement for literal variants. All clients take their next
/// request from the one stream, so a run completes a prefix of it.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, size_t pool_size, uint64_t seed);
  size_t Next();

 private:
  bool permutations_;
  size_t pool_size_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

/// The first `n` requests of the stream (the in-process replay order).
std::vector<size_t> StreamPrefix(const WorkloadSpec& spec, size_t pool_size,
                                 uint64_t seed, size_t n);

/// The workload's simulated backend, with its round-trip delay.
std::unique_ptr<galois::llm::SimulatedLlm> MakeModel(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload& workload, double delay_ms);

/// The Database configuration galoisd would be started with for `spec`,
/// over `model` (registered as an external backend so callers can wrap
/// it). `store_dir` empty means no store.
galois::DatabaseOptions MakeDatabaseOptions(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload* workload,
    galois::llm::LanguageModel* model, const std::string& store_dir,
    int64_t store_max_bytes, galois::store::StoreEnv* env);

/// Runs every pool entry once through `db` (the warm-up and the churn
/// pre-pass).
galois::Status RunPoolOnce(const galois::Database& db,
                           const std::vector<std::string>& pool);

/// Canonical byte forms of a response, as they travel on the wire.
std::string RelationBytes(const galois::Relation& relation);
std::string MeterBytes(const galois::llm::CostMeter& meter);

/// Reference answers, computed in-process at setup. Every response is
/// compared byte for byte against them; a mismatch is a wrong answer.
class Oracle {
 public:
  struct Expected {
    galois::Relation relation;
    galois::llm::CostMeter meter;
    /// eval::MatchCells percentage against engine::ExecuteSelect.
    double cell_match = 0.0;
  };

  /// References for every pool entry from `reference` (a Database in the
  /// state the server is in when timing starts); ground truth from the
  /// catalog's instances.
  static galois::Result<Oracle> Build(
      const galois::Database& reference,
      const galois::knowledge::SpiderLikeWorkload& workload,
      const std::vector<std::string>& pool, MeterCheck meter_check);

  /// Empty when a response for pool entry `index` is right, else what
  /// differs. Exact comparison of every column, type, value bit pattern
  /// and meter field: what the wire bytes encode.
  std::string Mismatch(size_t index, const galois::Relation& relation,
                       const galois::llm::CostMeter& meter) const;

  const Expected& expected(size_t index) const { return expected_[index]; }

 private:
  std::vector<Expected> expected_;
  MeterCheck meter_check_ = MeterCheck::kExact;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
