#include "workload.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "engine/executor.h"
#include "eval/metrics.h"
#include "llm/model_profile.h"
#include "net/protocol.h"

namespace perfbench {

using galois::Database;
using galois::Result;
using galois::Status;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec warm;
    warm.name = "warm";
    warm.materialisation_cache = true;
    warm.warm_up = true;
    all.push_back(warm);

    WorkloadSpec cold;
    cold.name = "cold";
    cold.llm_delay_ms = 1.0;
    all.push_back(cold);

    WorkloadSpec churn;
    churn.name = "churn";
    churn.materialisation_cache = true;
    churn.prompt_cache = true;
    churn.store = true;
    churn.literal_variants = true;
    churn.llm_delay_ms = 1.0;
    churn.noise_free_model = true;
    churn.meter_check = MeterCheck::kNone;
    all.push_back(churn);

    WorkloadSpec cluster = cold;
    cluster.name = "cluster";
    cluster.nodes = 2;
    cluster.meter_check = MeterCheck::kShardSum;
    all.push_back(cluster);
    return all;
  }();
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

/// A filtered query of the builtin mix with its literal made variable.
/// Numeric literals are drawn from [lo, hi] in steps of `step`; string
/// templates enumerate `values`.
struct Template {
  const char* prefix;
  int64_t lo = 0;
  int64_t hi = 0;
  int64_t step = 1;
  std::vector<std::string> values;
};

std::vector<Template> ChurnTemplates() {
  const std::vector<std::string> continents = {
      "'Europe'", "'Asia'", "'Africa'", "'North America'",
      "'South America'", "'Oceania'"};
  return {
      {"SELECT name FROM country WHERE continent = ", 0, 0, 1,
       continents},
      {"SELECT AVG(population) FROM country WHERE continent = ", 0, 0, 1,
       continents},
      {"SELECT name FROM country WHERE independenceYear > ", 1800, 2000,
       1, {}},
      {"SELECT name, population FROM country WHERE population > ",
       1000000, 300000000, 1000000, {}},
      {"SELECT name FROM city WHERE population > ", 500000, 20000000,
       100000, {}},
      {"SELECT name FROM airline WHERE foundedYear < ", 1900, 2010, 1,
       {}},
      {"SELECT name FROM singer WHERE birthYear > ", 1940, 2000, 1, {}},
      {"SELECT name FROM stadium WHERE capacity > ", 20000, 100000, 500,
       {}},
      {"SELECT COUNT(*) FROM airport WHERE elevation > ", 0, 3000, 10,
       {}},
  };
}

}  // namespace

std::vector<std::string> BuildPool(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload& workload, uint64_t seed) {
  std::vector<std::string> pool;
  if (!spec.literal_variants) {
    for (const auto& q : workload.queries()) pool.push_back(q.sql);
    return pool;
  }
  // Every string variant; the rest of the pool is split evenly over the
  // numeric templates. Each draws its literals stratified over its range
  // with a seeded phase, so every seed gets a pool of the same shape
  // (spread of selectivities, cache entries, journal size) with
  // different literals.
  const std::vector<Template> templates = ChurnTemplates();
  std::vector<const Template*> numeric;
  for (const Template& t : templates) {
    for (const std::string& v : t.values) {
      pool.push_back(t.prefix + v);
    }
    if (t.values.empty()) numeric.push_back(&t);
  }
  Rng rng(seed ^ 0x636875726eULL);
  const size_t numeric_total = kChurnPoolSize - pool.size();
  for (size_t n = 0; n < numeric.size(); ++n) {
    const Template& t = *numeric[n];
    const size_t count = numeric_total / numeric.size() +
                         (n < numeric_total % numeric.size() ? 1 : 0);
    const int64_t steps = (t.hi - t.lo) / t.step + 1;
    const double phase = static_cast<double>(rng.Below(1000000)) / 1e6;
    for (size_t k = 0; k < count; ++k) {
      const int64_t stratum = static_cast<int64_t>(
          (static_cast<double>(k) + phase) * static_cast<double>(steps) /
          static_cast<double>(count));
      pool.push_back(t.prefix + std::to_string(t.lo + t.step * stratum));
    }
  }
  return pool;
}

RequestStream::RequestStream(const WorkloadSpec& spec, size_t pool_size,
                             uint64_t seed)
    : permutations_(!spec.literal_variants),
      pool_size_(pool_size),
      rng_(seed * 0x100000001b3ULL + 1) {
  for (size_t i = 0; i < pool_size_; ++i) order_.push_back(i);
  pos_ = order_.size();
}

size_t RequestStream::Next() {
  if (!permutations_) return static_cast<size_t>(rng_.Below(pool_size_));
  if (pos_ == order_.size()) {
    Shuffle(&order_, &rng_);
    pos_ = 0;
  }
  return order_[pos_++];
}

std::vector<size_t> StreamPrefix(const WorkloadSpec& spec, size_t pool_size,
                                 uint64_t seed, size_t n) {
  RequestStream stream(spec, pool_size, seed);
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

std::unique_ptr<galois::llm::SimulatedLlm> MakeModel(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload& workload, double delay_ms) {
  galois::llm::ModelProfile profile = galois::llm::ModelProfile::ChatGpt();
  if (spec.noise_free_model) {
    profile.name = "GPT-3.5-turbo-noise-free";
    profile.coverage_floor = 1.0;
    profile.coverage_gain = 0.0;
    profile.unknown_rate = 0.0;
    profile.fake_entity_confidence = 0.0;
    profile.fact_accuracy = 1.0;
    profile.numeric_fact_accuracy = 1.0;
    profile.reference_style_noise = 0.0;
    profile.value_format_noise = 0.0;
    profile.verbosity = 0.0;
    profile.paging_fatigue = 0.0;
    profile.hallucinated_key_rate = 0.0;
    profile.pushdown_error = 0.0;
    profile.filter_check_error = 0.0;
  }
  auto model = std::make_unique<galois::llm::SimulatedLlm>(
      &workload.kb(), profile, &workload.catalog(), kModelSeed);
  model->set_wall_latency_ms(delay_ms);
  return model;
}

galois::DatabaseOptions MakeDatabaseOptions(
    const WorkloadSpec& spec,
    const galois::knowledge::SpiderLikeWorkload* workload,
    galois::llm::LanguageModel* model, const std::string& store_dir,
    int64_t store_max_bytes, galois::store::StoreEnv* env) {
  galois::DatabaseOptions options;
  options.workload = workload;
  options.llm_seed = kModelSeed;
  galois::BackendSpec backend;
  backend.name = model->name();
  backend.external = model;
  backend.prompt_cache = spec.prompt_cache;
  options.backends.push_back(std::move(backend));
  options.enable_materialisation_cache = spec.materialisation_cache;
  options.materialisation_cache_entries = kCacheEntries;
  if (!store_dir.empty()) {
    options.store.path = store_dir;
    if (store_max_bytes > 0) options.store.max_bytes = store_max_bytes;
    options.store.env = env;
  }
  return options;
}

Status RunPoolOnce(const Database& db, const std::vector<std::string>& pool) {
  galois::Session session = db.CreateSession();
  for (const std::string& sql : pool) {
    Result<galois::QueryResult> r = session.Query(sql);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

std::string RelationBytes(const galois::Relation& relation) {
  return galois::net::RelationToJson(relation).Dump();
}

std::string MeterBytes(const galois::llm::CostMeter& meter) {
  return galois::net::CostMeterToJson(meter).Dump();
}

Result<Oracle> Oracle::Build(
    const Database& reference,
    const galois::knowledge::SpiderLikeWorkload& workload,
    const std::vector<std::string>& pool, MeterCheck meter_check) {
  Oracle oracle;
  oracle.meter_check_ = meter_check;
  galois::Session session = reference.CreateSession();
  for (const std::string& sql : pool) {
    GALOIS_ASSIGN_OR_RETURN(galois::QueryResult r, session.Query(sql));
    GALOIS_ASSIGN_OR_RETURN(
        galois::Relation truth,
        galois::engine::ExecuteSql(sql, workload.catalog()));
    Expected e;
    e.cell_match = galois::eval::MatchCells(truth, r.relation).Percent();
    e.relation = std::move(r.relation);
    e.meter = std::move(r.cost);
    oracle.expected_.push_back(std::move(e));
  }
  return oracle;
}

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameValue(const galois::Value& a, const galois::Value& b) {
  using galois::DataType;
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kBool:
      return a.bool_value() == b.bool_value();
    case DataType::kInt64:
      return a.int_value() == b.int_value();
    case DataType::kDouble:
      return SameDouble(a.double_value(), b.double_value());
    case DataType::kString:
      return a.string_value() == b.string_value();
    case DataType::kDate:
      return a.date_packed() == b.date_packed();
  }
  return false;
}

bool SameRelation(const galois::Relation& a, const galois::Relation& b) {
  if (!(a.schema().columns() == b.schema().columns())) return false;
  if (a.rows().size() != b.rows().size()) return false;
  for (size_t r = 0; r < a.rows().size(); ++r) {
    const galois::Tuple& x = a.rows()[r];
    const galois::Tuple& y = b.rows()[r];
    if (x.size() != y.size()) return false;
    for (size_t c = 0; c < x.size(); ++c) {
      if (!SameValue(x[c], y[c])) return false;
    }
  }
  return true;
}

/// Exact, except that with `shard_sum` simulated latencies (floating-
/// point sums) may differ by 1e-9 relative.
bool SameMeter(const galois::llm::CostMeter& a,
               const galois::llm::CostMeter& b, bool shard_sum) {
  auto same_ms = [shard_sum](double x, double y) {
    if (!shard_sum) return SameDouble(x, y);
    return std::abs(x - y) <= 1e-9 * (1.0 + std::abs(y));
  };
  if (a.num_prompts != b.num_prompts || a.prompt_tokens != b.prompt_tokens ||
      a.completion_tokens != b.completion_tokens ||
      a.cache_hits != b.cache_hits || a.store_hits != b.store_hits ||
      a.num_batches != b.num_batches ||
      !same_ms(a.simulated_latency_ms, b.simulated_latency_ms) ||
      a.by_model.size() != b.by_model.size()) {
    return false;
  }
  for (const auto& [name, x] : a.by_model) {
    auto it = b.by_model.find(name);
    if (it == b.by_model.end()) return false;
    const galois::llm::ModelUsage& y = it->second;
    if (x.num_prompts != y.num_prompts ||
        x.prompt_tokens != y.prompt_tokens ||
        x.completion_tokens != y.completion_tokens ||
        x.num_batches != y.num_batches ||
        !same_ms(x.simulated_latency_ms, y.simulated_latency_ms)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string Oracle::Mismatch(size_t index, const galois::Relation& relation,
                             const galois::llm::CostMeter& meter) const {
  if (index >= expected_.size()) return "no reference";
  const Expected& e = expected_[index];
  if (!SameRelation(relation, e.relation)) {
    return "relation " + RelationBytes(relation) + " != reference " +
           RelationBytes(e.relation);
  }
  if (meter_check_ != MeterCheck::kNone &&
      !SameMeter(meter, e.meter, meter_check_ == MeterCheck::kShardSum)) {
    return "meter " + MeterBytes(meter) + " != reference " +
           MeterBytes(e.meter);
  }
  return "";
}

}  // namespace perfbench
