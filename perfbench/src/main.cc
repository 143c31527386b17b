// galois_perfbench — the repo benchmark's one binary.
//
//   galois_perfbench run --workload W --seed N --seconds S --trace 0|1
//                        --work-dir DIR
//   galois_perfbench serve ...      (a server process; started by `run`)
//   galois_perfbench selftest
//
// perfbench/run.py builds it and drives it; see that file for the
// workloads and metrics.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "core/galois_executor.h"
#include "layers.h"
#include "run.h"
#include "server.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Numbers from an unoptimised or instrumented build say nothing about
/// the program; the benchmark refuses to record them.
const char* UnfitBuild() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "not an optimised build (Debug or no -O)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  return nullptr;
#endif
}

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("self-test failed: %s\n", what.c_str());
  }
}

std::vector<Weighted> Unit(const std::vector<double>& values) {
  std::vector<Weighted> out;
  for (double v : values) out.push_back({v, 1.0});
  return out;
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  Percentile p50 = NearestRank(Unit(v), 50), p90 = NearestRank(Unit(v), 90),
             p99 = NearestRank(Unit(v), 99), p100 = NearestRank(Unit(v), 100);
  Expect(p50.value == 50 && p50.beyond == 50 && !p50.thin, "p50 of 1..100");
  Expect(p90.value == 90 && p90.beyond == 10 && !p90.thin, "p90 of 1..100");
  Expect(p99.value == 99 && p99.beyond == 1 && p99.thin, "p99 of 1..100");
  Expect(p100.value == 100 && p100.beyond == 0, "p100 of 1..100");
  Expect(NearestRank(Unit({7}), 99).value == 7, "percentile of one sample");
  Expect(NearestRank(Unit({1, 2, 3, 4}), 50).value == 2,
         "rank ceil(0.5 * 4) = 2");
  Expect(NearestRank(Unit({1, 2, 3, 4}), 51).value == 3,
         "rank ceil(0.51 * 4) = 3");
  Expect(NearestRank({}, 50).samples == 0, "empty sample");
  // Query A answered three times, B once: weighted 1/3 each, A and B
  // count equally and the median is A's latency.
  std::vector<Weighted> mix = {{1, 1.0 / 3}, {1, 1.0 / 3}, {1, 1.0 / 3},
                               {9, 1.0}};
  Expect(NearestRank(mix, 50).value == 1, "weighted median");
  Expect(NearestRank(mix, 51).value == 9, "weighted p51");
  Expect(NearestRank(Unit({1, 1, 1, 9}), 51).value == 1, "unweighted p51");
}

void TestStreams() {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    auto a = StreamPrefix(spec, 46, 1, 400);
    auto b = StreamPrefix(spec, 46, 1, 400);
    auto c = StreamPrefix(spec, 46, 2, 400);
    Expect(a == b, spec.name + ": same seed, same stream");
    Expect(a != c, spec.name + ": other seed, other stream");
  }
  // A permutation stream sends every query once per pass.
  RequestStream s(*FindWorkload("cold"), 46, 3);
  std::set<size_t> pass;
  for (int i = 0; i < 46; ++i) pass.insert(s.Next());
  Expect(pass.size() == 46, "builtin stream is a permutation per pass");
}

void TestChurnPool(const galois::knowledge::SpiderLikeWorkload& workload) {
  const WorkloadSpec& churn = *FindWorkload("churn");
  const auto pool1 = BuildPool(churn, workload, 1);
  Expect(pool1 == BuildPool(churn, workload, 1), "churn pool is seeded");
  Expect(pool1 != BuildPool(churn, workload, 2), "churn pool varies by seed");
  Expect(std::set<std::string>(pool1.begin(), pool1.end()).size() ==
             pool1.size(),
         "churn variants are distinct");
  // Distinct (table, predicate descriptor) pairs are distinct cache
  // entries; columns are left out because a wider entry can serve a
  // narrower query.
  auto model = MakeModel(churn, workload, 0.0);
  galois::core::GaloisExecutor planner(model.get(), &workload.catalog());
  std::set<std::string> entries;
  for (const std::string& sql : pool1) {
    auto shards = planner.PlanShards(sql);
    if (!shards.ok()) {
      Expect(false, "churn query does not plan: " + sql);
      continue;
    }
    for (const auto& shard : shards.value()) {
      entries.insert(shard.table + '\0' + shard.descriptor);
    }
  }
  std::printf("churn pool: %zu queries, %zu distinct cache entries, cache "
              "capacity %zu\n",
              pool1.size(), entries.size(), kCacheEntries);
  Expect(entries.size() >= 3 * kCacheEntries,
         "churn entries are several times the cache capacity");
}

void TestOracle(const galois::knowledge::SpiderLikeWorkload& workload) {
  const std::vector<std::string> pool = {
      "SELECT name, capital FROM country WHERE continent = 'Asia'"};
  const WorkloadSpec& cold = *FindWorkload("cold");
  auto model = MakeModel(cold, workload, 0.0);
  auto db = galois::Database::Open(
      MakeDatabaseOptions(cold, &workload, model.get(), "", 0, nullptr));
  if (!db.ok()) {
    Expect(false, "oracle database opens");
    return;
  }
  auto oracle =
      Oracle::Build(*db.value(), workload, pool, MeterCheck::kExact);
  auto answer = db.value()->CreateSession().Query(pool[0]);
  if (!oracle.ok() || !answer.ok() || answer.value().relation.empty()) {
    Expect(false, "oracle reference query runs");
    return;
  }
  const galois::QueryResult& r = answer.value();
  Expect(oracle.value().Mismatch(0, r.relation, r.cost).empty(),
         "oracle accepts");
  galois::Relation flipped = r.relation;
  galois::Value& cell = (*flipped.mutable_rows())[0][1];
  cell = galois::Value::String(cell.ToString() + "?");
  Expect(!oracle.value().Mismatch(0, flipped, r.cost).empty(),
         "oracle catches one flipped cell");
  galois::llm::CostMeter meter = r.cost;
  meter.num_prompts += 1;
  Expect(!oracle.value().Mismatch(0, r.relation, meter).empty(),
         "oracle catches a wrong meter");
}

void TestSpanAccounting() {
  auto span = [](int64_t id, int64_t parent, const char* name, int64_t a,
                 int64_t b) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.query = 1;
    s.name = name;
    s.start_ns = a;
    s.end_ns = b;
    return s;
  };
  // query [0,100): parse [0,10), execute [10,90) with two concurrent
  // model calls [20,60) and [40,70), tail [90,100).
  std::vector<Span> spans = {
      span(1, 0, "query", 0, 100),       span(2, 1, "sql.parse", 0, 10),
      span(3, 1, "core.execute", 10, 90), span(4, 3, "llm.call", 20, 60),
      span(5, 3, "llm.call", 40, 70),    span(6, 1, "engine.tail", 90, 100),
      span(7, 0, "store.append", 0, 50)};  // background: outside queries
  LayerTimes t = AnalyseSpans(spans);
  Expect(t.self_ns["llm.call"] == 50, "concurrent calls of a layer count once");
  Expect(t.self_ns["core.execute"] == 30, "self time subtracts the union");
  Expect(t.self_ns["query"] == 0 && t.query_ns == 100, "query span total");
  Expect(t.self_ns.count("store.append") == 0, "background spans excluded");
  Expect(t.accounting_error == 0.0, "nested layers account exactly");
  // Two different layers overlapping (a call beside a store append)
  // double-count 20 of 100.
  spans[4].name = "store.append";
  t = AnalyseSpans(spans);
  Expect(t.accounting_error > 0.19 && t.accounting_error < 0.21,
         "overlapping layers show as accounting error");
}

int Usage() {
  std::fprintf(stderr,
               "usage: galois_perfbench run --workload W --seed N --seconds "
               "S --trace 0|1 --work-dir DIR\n"
               "       galois_perfbench selftest\n");
  return 2;
}

}  // namespace

bool RunSelfTests() {
  failures = 0;
  TestPercentiles();
  TestStreams();
  TestSpanAccounting();
  auto workload = galois::knowledge::SpiderLikeWorkload::Create();
  Expect(workload.ok(), "workload builds");
  if (workload.ok()) {
    TestChurnPool(workload.value());
    TestOracle(workload.value());
  }
  return failures == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return perfbench::Usage();
  const std::string mode = args[0];
  args.erase(args.begin());
  if (mode == "serve") return perfbench::ServeMain(args);
  if (mode == "selftest") {
    const bool ok = perfbench::RunSelfTests();
    std::printf("self-tests %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  if (mode != "run") return perfbench::Usage();

  if (const char* why = perfbench::UnfitBuild()) {
    std::fprintf(stderr, "galois_perfbench: refusing to measure %s\n", why);
    return 3;
  }
  perfbench::RunConfig config;
  char self[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return 1;
  config.exe.assign(self, static_cast<size_t>(n));
  for (size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (config.workload.empty() || config.seconds < 1 ||
      config.work_dir.empty()) {
    return perfbench::Usage();
  }
  return perfbench::RunMain(config);
}
