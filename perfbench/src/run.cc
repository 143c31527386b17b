#include "run.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "cluster/cluster_coordinator.h"
#include "common/json.h"
#include "layers.h"
#include "net/galois_client.h"
#include "net/protocol.h"
#include "replay.h"
#include "server.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace fs = std::filesystem;
using galois::Json;
using galois::QueryResult;
using galois::Result;
using galois::Status;

namespace {

/// Server launches per run; setup_s is their median.
constexpr int kSetups = 9;
/// The traced replay's layer self times must add up to its query spans
/// within this share.
constexpr double kAccountingTolerance = 0.05;
/// Cap on replayed queries per pass (bounds the span buffer).
constexpr size_t kMaxReplayQueries = 20000;
/// Latency recorded for a failed or wrong query: beyond every limit.
constexpr double kFailedLatencyMs = 1e9;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Clients() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  Json ToJson() const {
    Json out = Json::Object();
    for (const auto& [name, vu] : entries_) {
      Json m = Json::Object();
      m.Set("value", Json::Number(vu.first));
      m.Set("unit", Json::String(vu.second));
      out.Set(name, std::move(m));
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Everything the closed-loop clients observed.
struct Tally {
  /// Every attempt, in completion order per client.
  struct Sample {
    int64_t end_ns = 0;
    double latency_ms = 0.0;  // kFailedLatencyMs when failed or wrong
    size_t query = 0;         // pool index
    bool ok = false;
  };
  std::vector<Sample> samples;
  std::vector<double> overhead_us;  // client latency - server wall_ms
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t table_lookups = 0;
  int64_t table_hits = 0;
  int64_t table_subsumption_hits = 0;
  int64_t prompt_cache_hits = 0;
  int64_t prompts = 0;
  /// Per pool entry: responses, and their summed meters.
  std::vector<int64_t> responses;
  std::vector<double> prompts_sum, tokens_sum, simulated_ms_sum;
  std::string first_error;

  explicit Tally(size_t pool) :
      responses(pool), prompts_sum(pool), tokens_sum(pool),
      simulated_ms_sum(pool) {}

  void Merge(const Tally& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    overhead_us.insert(overhead_us.end(), o.overhead_us.begin(),
                       o.overhead_us.end());
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    table_lookups += o.table_lookups;
    table_hits += o.table_hits;
    table_subsumption_hits += o.table_subsumption_hits;
    prompt_cache_hits += o.prompt_cache_hits;
    prompts += o.prompts;
    for (size_t i = 0; i < responses.size(); ++i) {
      responses[i] += o.responses[i];
      prompts_sum[i] += o.prompts_sum[i];
      tokens_sum[i] += o.tokens_sum[i];
      simulated_ms_sum[i] += o.simulated_ms_sum[i];
    }
    if (first_error.empty()) first_error = o.first_error;
  }

  /// Mean over the pool entries answered of each entry's mean per-query
  /// value: every distinct query weighs the same, whatever share of the
  /// run it happened to get.
  double PoolWeighted(const std::vector<double>& sums) const {
    double total = 0.0;
    int answered = 0;
    for (size_t i = 0; i < responses.size(); ++i) {
      if (responses[i] == 0) continue;
      total += sums[i] / static_cast<double>(responses[i]);
      ++answered;
    }
    return answered == 0 ? 0.0 : total / answered;
  }
};

using QueryFn = std::function<Result<QueryResult>(const std::string&)>;

/// The request stream shared by the clients.
class SharedStream {
 public:
  explicit SharedStream(RequestStream stream) : stream_(std::move(stream)) {}
  size_t Next() {
    std::lock_guard<std::mutex> lock(mu_);
    return stream_.Next();
  }

 private:
  std::mutex mu_;
  RequestStream stream_;  // guarded by mu_
};

/// One closed-loop client: takes the stream's next query only after the
/// previous reply, until the deadline.
void ClientLoop(const QueryFn& query, const std::vector<std::string>& pool,
                const Oracle& oracle, SharedStream* stream,
                const std::atomic<bool>& go, const int64_t* start_ns,
                int64_t run_ns, Tally* tally) {
  while (!go.load()) std::this_thread::yield();
  const int64_t deadline = *start_ns + run_ns;
  while (NowNs() < deadline) {
    const size_t idx = stream->Next();
    const int64_t t0 = NowNs();
    Result<QueryResult> r = query(pool[idx]);
    const int64_t t1 = NowNs();
    ++tally->attempted;
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    const std::string wrong =
        r.ok() ? oracle.Mismatch(idx, r.value().relation, r.value().cost)
               : r.status().ToString();
    if (!wrong.empty()) {
      ++tally->failed;
      tally->samples.push_back({t1, kFailedLatencyMs, idx, false});
      if (tally->first_error.empty()) {
        tally->first_error = pool[idx] + ": " + wrong;
      }
      continue;
    }
    const QueryResult& q = r.value();
    ++tally->ok;
    tally->samples.push_back({t1, ms, idx, true});
    tally->overhead_us.push_back((ms - q.wall_ms) * 1000.0);
    tally->table_lookups += q.table_cache_lookups;
    tally->table_hits += q.table_cache_hits;
    tally->table_subsumption_hits += q.table_cache_subsumption_hits;
    tally->prompt_cache_hits += q.cost.cache_hits;
    tally->prompts += q.cost.num_prompts;
    ++tally->responses[idx];
    tally->prompts_sum[idx] += static_cast<double>(q.cost.num_prompts);
    tally->tokens_sum[idx] +=
        static_cast<double>(q.cost.prompt_tokens + q.cost.completion_tokens);
    tally->simulated_ms_sum[idx] += q.cost.simulated_latency_ms;
  }
}

/// The workload's server side: one galoisd-configured process, or two
/// nodes behind a coordinating Database in this process.
struct Deployment {
  std::vector<ServerProcess> servers;
  std::unique_ptr<galois::llm::SimulatedLlm> coordinator_model;
  std::unique_ptr<galois::Database> coordinator;
  double setup_s = 0.0;

  double CpuMs() const {
    double ms = 0.0;
    for (const ServerProcess& s : servers) ms += s.CpuMs();
    return ms;
  }
  void Stop() {
    coordinator.reset();
    for (ServerProcess& s : servers) s.Stop();
  }
};

Result<Deployment> Deploy(const RunConfig& config, const WorkloadSpec& spec,
                          const galois::knowledge::SpiderLikeWorkload& workload,
                          const std::vector<std::string>& server_args) {
  Deployment d;
  const auto start = std::chrono::steady_clock::now();
  const int processes = spec.nodes > 0 ? spec.nodes : 1;
  for (int i = 0; i < processes; ++i) {
    GALOIS_ASSIGN_OR_RETURN(ServerProcess s,
                            ServerProcess::Spawn(config.exe, server_args));
    d.servers.push_back(std::move(s));
  }
  for (ServerProcess& s : d.servers) GALOIS_RETURN_IF_ERROR(s.WaitReady());
  if (spec.nodes > 0) {
    d.coordinator_model = MakeModel(spec, workload, 0.0);
    WorkloadSpec local = spec;
    local.nodes = 0;
    galois::DatabaseOptions options = MakeDatabaseOptions(
        local, &workload, d.coordinator_model.get(), "", 0, nullptr);
    for (const ServerProcess& s : d.servers) {
      galois::cluster::NodeSpec node;
      node.port = s.port();
      options.cluster.nodes.push_back(node);
    }
    GALOIS_ASSIGN_OR_RETURN(d.coordinator,
                            galois::Database::Open(std::move(options)));
  }
  d.setup_s = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  return d;
}

/// End-to-end figures of the timed phase, per window. The phase is cut
/// into up to one window per second, each holding at least
/// kSamplesPerWindow answers (one window when the run has fewer); every
/// reported figure is the median over windows, so a burst of outside
/// interference moves one window, not the result.
struct WindowedMetrics {
  int windows = 1;
  std::vector<double> qps;
  std::vector<double> percentile[3];  // p50, p90, p99
  size_t min_beyond[3] = {0, 0, 0};
  std::vector<double> cpu_ms_per_query;
};

constexpr int64_t kSamplesPerWindow = 1000;

WindowedMetrics Windowed(const Tally& tally, int64_t start_ns, int seconds,
                         const std::vector<double>& cpu_ticks) {
  WindowedMetrics out;
  out.windows = static_cast<int>(std::clamp<int64_t>(
      tally.ok / kSamplesPerWindow, 1, static_cast<int64_t>(seconds)));
  int64_t end_ns = start_ns + 1;
  for (const Tally::Sample& s : tally.samples) {
    end_ns = std::max(end_ns, s.end_ns);
  }
  for (int k = 0; k < 3; ++k) out.min_beyond[k] = tally.samples.size();
  for (int w = 0; w < out.windows; ++w) {
    // Window w spans whole seconds [a, b); the last one runs on to the
    // final answer (queries in flight at the deadline).
    const int a = w * seconds / out.windows;
    const int b = (w + 1) * seconds / out.windows;
    const bool last = w + 1 == out.windows;
    const int64_t from = start_ns + a * 1000000000LL;
    const int64_t to = last ? end_ns : start_ns + b * 1000000000LL;
    // Weight each answer by 1 / (answers to its query in the window):
    // every distinct query of the pool counts the same, the mix the
    // stream is drawn from, whatever share of the window it got.
    std::map<size_t, int> per_query;
    int64_t ok = 0, attempted = 0;
    for (const Tally::Sample& s : tally.samples) {
      if (s.end_ns < from || (!last && s.end_ns >= to)) continue;
      ++per_query[s.query];
      ++attempted;
      if (s.ok) ++ok;
    }
    std::vector<Weighted> latencies;
    for (const Tally::Sample& s : tally.samples) {
      if (s.end_ns < from || (!last && s.end_ns >= to)) continue;
      latencies.push_back({s.latency_ms, 1.0 / per_query[s.query]});
    }
    out.qps.push_back(static_cast<double>(ok) /
                      (static_cast<double>(to - from) / 1e9));
    const double ps[3] = {50.0, 90.0, 99.0};
    for (int k = 0; k < 3; ++k) {
      const Percentile p = NearestRank(latencies, ps[k]);
      out.percentile[k].push_back(p.value);
      out.min_beyond[k] = std::min(out.min_beyond[k], p.beyond);
    }
    const double cpu =
        (last ? cpu_ticks.back() : cpu_ticks[static_cast<size_t>(b)]) -
        cpu_ticks[static_cast<size_t>(a)];
    out.cpu_ms_per_query.push_back(
        cpu / static_cast<double>(std::max<int64_t>(attempted, 1)));
  }
  return out;
}

std::string WorkDir(const RunConfig& config) {
  return config.work_dir + "/" + config.workload + "-" +
         std::to_string(getpid());
}

}  // namespace

int RunMain(const RunConfig& config) {
  const WorkloadSpec* spec_ptr = FindWorkload(config.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const int clients = Clients();

  // Declared setup, recorded with every result.
  {
    Json setup = Json::Object();
    setup.Set("build_type", Json::String(PERFBENCH_BUILD_TYPE));
    setup.Set("compiler", Json::String(PERFBENCH_COMPILER));
    setup.Set("nproc", Json::Number(static_cast<int64_t>(
                           sysconf(_SC_NPROCESSORS_ONLN))));
    setup.Set("clients", Json::Number(static_cast<int64_t>(clients)));
    setup.Set("workload", Json::String(spec.name));
    setup.Set("seed", Json::Number(static_cast<double>(config.seed)));
    setup.Set("seconds", Json::Number(static_cast<int64_t>(config.seconds)));
    setup.Set("trace", Json::Bool(config.trace));
    setup.Set("llm_delay_ms_per_round_trip", Json::Number(spec.llm_delay_ms));
    setup.Set("model_seed", Json::Number(static_cast<int64_t>(kModelSeed)));
    Json line = Json::Object();
    line.Set("setup", std::move(setup));
    std::printf("%s\n", line.Dump().c_str());
  }

  bool correct = RunSelfTests();
  if (!correct) std::printf("self-tests FAILED\n");

  auto fail = [](const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    return 1;
  };

  Result<galois::knowledge::SpiderLikeWorkload> workload_or =
      galois::knowledge::SpiderLikeWorkload::Create();
  if (!workload_or.ok()) return fail(workload_or.status().ToString());
  const galois::knowledge::SpiderLikeWorkload& workload = workload_or.value();
  const std::vector<std::string> pool =
      BuildPool(spec, workload, config.seed);

  const std::string dir = WorkDir(config);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  // Churn: a seeded pre-pass buys every prompt of the pool (no
  // materialisation cache, so no variant is served by another's entry)
  // and writes the journal the server then recovers. The budget leaves
  // room for half the journal again in appends before a vacuum
  // compacts it.
  std::string store_dir, pristine;
  int64_t store_max_bytes = 0;
  if (spec.store) {
    store_dir = dir + "/store";
    pristine = dir + "/pristine.store";
    {
      WorkloadSpec prepass = spec;
      prepass.materialisation_cache = false;
      auto model = MakeModel(spec, workload, 0.0);
      auto db = galois::Database::Open(MakeDatabaseOptions(
          prepass, &workload, model.get(), store_dir, 0, nullptr));
      if (!db.ok()) return fail(db.status().ToString());
      Status s = RunPoolOnce(*db.value(), pool);
      if (!s.ok()) return fail("pre-pass: " + s.ToString());
    }
    const int64_t journal =
        static_cast<int64_t>(fs::file_size(store_dir + "/galois.store"));
    store_max_bytes = journal + journal / 2;
    fs::copy_file(store_dir + "/galois.store", pristine);
  }

  // Oracle: references in the state the server is in when timing
  // starts. Churn's meters depend on cache history, so its references
  // come from an uncached Database and only relations are compared.
  Oracle oracle;
  {
    WorkloadSpec ref = spec;
    ref.nodes = 0;
    ref.store = false;
    if (spec.meter_check == MeterCheck::kNone) {
      ref.materialisation_cache = false;
      ref.prompt_cache = false;
      ref.warm_up = false;
    }
    auto model = MakeModel(ref, workload, 0.0);
    auto db = galois::Database::Open(
        MakeDatabaseOptions(ref, &workload, model.get(), "", 0, nullptr));
    if (!db.ok()) return fail(db.status().ToString());
    if (ref.warm_up) {
      Status s = RunPoolOnce(*db.value(), pool);
      if (!s.ok()) return fail("oracle warm-up: " + s.ToString());
    }
    Result<Oracle> built =
        Oracle::Build(*db.value(), workload, pool, spec.meter_check);
    if (!built.ok()) return fail("oracle: " + built.status().ToString());
    oracle = std::move(built).value();
  }

  // Setup, several times; the last deployment serves the timed phase.
  std::vector<std::string> server_args = {"--workload", spec.name};
  if (spec.store) {
    server_args.insert(server_args.end(),
                       {"--store", store_dir, "--store-max-bytes",
                        std::to_string(store_max_bytes)});
  }
  std::vector<double> setups;
  Deployment deployment;
  for (int i = 0; i < kSetups; ++i) {
    deployment.Stop();
    Result<Deployment> d = Deploy(config, spec, workload, server_args);
    if (!d.ok()) return fail("setup: " + d.status().ToString());
    deployment = std::move(d).value();
    setups.push_back(deployment.setup_s);
  }

  // Timed phase: closed-loop clients, one connection each.
  const int64_t run_ns = static_cast<int64_t>(config.seconds) * 1000000000LL;
  std::vector<Tally> tallies(static_cast<size_t>(clients), Tally(pool.size()));
  std::vector<galois::net::GaloisClient> connections;
  std::vector<QueryFn> fns;
  std::vector<galois::Session> sessions;
  for (int c = 0; c < clients; ++c) {
    if (deployment.coordinator) {
      sessions.push_back(deployment.coordinator->CreateSession());
    } else {
      galois::net::ClientOptions co;
      co.port = deployment.servers.front().port();
      co.io_timeout_ms = 60000;
      Result<galois::net::GaloisClient> client =
          galois::net::GaloisClient::Connect(co);
      if (!client.ok()) return fail("connect: " + client.status().ToString());
      connections.push_back(std::move(client).value());
    }
  }
  for (int c = 0; c < clients; ++c) {
    if (deployment.coordinator) {
      galois::Session* s = &sessions[c];
      fns.push_back([s](const std::string& sql) { return s->Query(sql); });
    } else {
      galois::net::GaloisClient* cl = &connections[c];
      fns.push_back([cl](const std::string& sql) { return cl->Query(sql); });
    }
  }
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  SharedStream stream(RequestStream(spec, pool.size(), config.seed));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(fns[c]), std::cref(pool),
                         std::cref(oracle), &stream, std::cref(go),
                         &start_ns, run_ns, &tallies[c]);
  }
  // Server CPU at every whole second of the timed phase, and at its end.
  std::vector<double> cpu_ticks = {deployment.CpuMs()};
  start_ns = NowNs();
  go.store(true);
  for (int k = 1; k < config.seconds; ++k) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start_ns + static_cast<int64_t>(k) * 1000000000LL)));
    cpu_ticks.push_back(deployment.CpuMs());
  }
  for (std::thread& t : threads) t.join();
  cpu_ticks.push_back(deployment.CpuMs());
  int64_t rss_kb = 0;
  for (const ServerProcess& s : deployment.servers) rss_kb += s.PeakRssKb();

  Tally tally(pool.size());
  for (const Tally& t : tallies) tally.Merge(t);

  // Admission rejections and cluster counters, from the servers.
  int64_t rejected = 0, started = 0;
  for (const ServerProcess& s : deployment.servers) {
    galois::net::ClientOptions co;
    co.port = s.port();
    Result<galois::net::GaloisClient> client =
        galois::net::GaloisClient::Connect(co);
    if (!client.ok()) continue;
    Result<galois::net::ServerStats> stats = client.value().Stats();
    if (!stats.ok()) continue;
    rejected += stats.value().queries_rejected;
    started += stats.value().queries_started + stats.value().partials_started;
  }
  galois::cluster::ClusterStats cluster_stats;
  if (deployment.coordinator) {
    cluster_stats = deployment.coordinator->cluster()->stats();
  }
  connections.clear();
  sessions.clear();
  fns.clear();

  if (tally.failed > 0) {
    correct = false;
    std::printf("failed queries: %lld (first: %s)\n",
                static_cast<long long>(tally.failed),
                tally.first_error.c_str());
  }

  // Distinct queries answered, each weighted once.
  double match_sum = 0.0;
  int answered = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (tally.responses[i] == 0) continue;
    match_sum += oracle.expected(i).cell_match;
    ++answered;
  }
  std::printf("attempted %lld, succeeded %lld, failed %lld; %d of %zu "
              "distinct queries answered\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.ok),
              static_cast<long long>(tally.failed), answered, pool.size());

  Metrics metrics;
  if (!config.trace) {
    const WindowedMetrics w =
        Windowed(tally, start_ns, config.seconds, cpu_ticks);
    std::printf("%d window(s); qps per window:", w.windows);
    for (double q : w.qps) std::printf(" %.1f", q);
    std::printf("\n");
    metrics.Add("qps", Median(w.qps), "1/s");
    const char* names[3] = {"p50_ms", "p90_ms", "p99_ms"};
    for (int k = 0; k < 3; ++k) {
      std::printf("%s = %.4f  (median of %d window(s); n=%lld; fewest "
                  "samples beyond in a window: %zu%s)\n",
                  names[k], Median(w.percentile[k]), w.windows,
                  static_cast<long long>(tally.attempted), w.min_beyond[k],
                  w.min_beyond[k] < 10 ? "; FEWER THAN 10 SAMPLES BEYOND"
                                       : "");
      metrics.Add(names[k], Median(w.percentile[k]), "ms");
    }
    metrics.Add("answer_cell_match", answered ? match_sum / answered : 0.0,
                "%");
    metrics.Add("server_cpu_ms_per_query", Median(w.cpu_ms_per_query), "ms");
    metrics.Add("rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
    metrics.Add("setup_s", Median(setups), "s");
  } else {
    const double q = static_cast<double>(std::max<int64_t>(tally.ok, 1));
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    metrics.Add("llm_prompts_per_query", tally.PoolWeighted(tally.prompts_sum),
                "count");
    metrics.Add("llm_tokens_per_query", tally.PoolWeighted(tally.tokens_sum),
                "count");
    metrics.Add("llm.simulated_ms_per_query",
                tally.PoolWeighted(tally.simulated_ms_sum), "ms");
    metrics.Add("llm.prompt_cache_hit_ratio",
                ratio(static_cast<double>(tally.prompt_cache_hits),
                      static_cast<double>(tally.prompt_cache_hits +
                                          tally.prompts)),
                "ratio");
    metrics.Add("core.cache_lookups_per_query",
                static_cast<double>(tally.table_lookups) / q, "count");
    metrics.Add("core.cache_hit_ratio",
                ratio(static_cast<double>(tally.table_hits),
                      static_cast<double>(tally.table_lookups)),
                "ratio");
    metrics.Add("core.cache_subsumption_ratio",
                ratio(static_cast<double>(tally.table_subsumption_hits),
                      static_cast<double>(tally.table_lookups)),
                "ratio");
    metrics.Add("net.overhead_us", Median(tally.overhead_us), "us");
    metrics.Add("net.rejected_frac",
                ratio(static_cast<double>(rejected),
                      static_cast<double>(started + rejected)),
                "ratio");
    metrics.Add("cluster.shards_per_query",
                ratio(static_cast<double>(cluster_stats.shards_dispatched),
                      static_cast<double>(cluster_stats.queries)),
                "count");
    metrics.Add("cluster.redispatches",
                static_cast<double>(cluster_stats.redispatches), "count");

    // In-process replay of the same stream, in the order untraced,
    // traced, traced, untraced: a drift in machine speed during the four
    // passes cancels out of the tracing overhead. The first pass fixes
    // how many queries the others replay.
    const size_t n = std::min<size_t>(
        std::max<int64_t>(tally.attempted, 1), kMaxReplayQueries);
    const std::vector<size_t> order =
        StreamPrefix(spec, pool.size(), config.seed, n);
    const std::string replay_store = spec.store ? dir + "/replay" : "";
    std::vector<ReplayPass> passes;
    for (const bool traced : {false, true, true, false}) {
      const std::vector<size_t> prefix(
          order.begin(),
          order.begin() + (passes.empty() ? order.size()
                                          : passes[0].relations.size()));
      Result<ReplayPass> pass = ReplayOnce(
          spec, workload, pool, oracle, prefix, pristine, replay_store,
          store_max_bytes, traced, passes.empty() ? run_ns / 4 : 0);
      if (!pass.ok()) return fail("replay: " + pass.status().ToString());
      passes.push_back(std::move(pass).value());
    }
    const size_t replayed = passes[0].relations.size();
    const ReplayPass& t = passes[1];

    // The wrappers are pure forwarders: byte-identical relations and
    // meters with and without them; and the replay answers like
    // Session::Query.
    for (const ReplayPass& p : passes) {
      if (p.relations != passes[0].relations || p.meters != passes[0].meters) {
        correct = false;
        std::printf("replay: traced and untraced passes differ\n");
      }
      if (!p.wrong.empty()) {
        correct = false;
        std::printf("replay: wrong answer: %s\n", p.wrong.c_str());
      }
    }

    const LayerTimes layers = AnalyseSpans(t.spans);
    const std::string span_path =
        config.work_dir + "/spans-" + spec.name + ".json";
    WriteSpansJson(t.spans, span_path);
    if (layers.accounting_error > kAccountingTolerance) {
      correct = false;
      std::printf("layer self times miss the query spans by %.4f "
                  "(tolerance %.2f)\n",
                  layers.accounting_error, kAccountingTolerance);
    }
    const double rq = static_cast<double>(std::max<size_t>(replayed, 1));
    auto self_us = [&](const char* name) {
      auto it = layers.self_ns.find(name);
      return it == layers.self_ns.end()
                 ? 0.0
                 : static_cast<double>(it->second) / rq / 1e3;
    };
    std::printf("replayed %zu queries; spans in %s\n", replayed,
                span_path.c_str());
    metrics.Add("sql.parse_us", self_us("sql.parse"), "us");
    metrics.Add("planner.plan_us", self_us("planner.plan"), "us");
    metrics.Add("core.compile_us", self_us("core.compile"), "us");
    metrics.Add("core.execute_self_us", self_us("core.execute"), "us");
    metrics.Add("engine.tail_us", self_us("engine.tail"), "us");
    metrics.Add("engine.tail_share",
                ratio(self_us("engine.tail") * rq * 1e3,
                      static_cast<double>(layers.query_ns)),
                "ratio");
    metrics.Add("llm.round_trips_per_query",
                static_cast<double>(t.round_trips) / rq, "count");
    metrics.Add("llm.wait_ms_per_query", self_us("llm.call") / 1e3, "ms");
    const StoreCounters& sc = t.store;
    metrics.Add("store.appends_per_query",
                static_cast<double>(sc.appends) / rq, "count");
    metrics.Add("store.bytes_written_per_query",
                static_cast<double>(sc.journal_bytes + sc.rewrite_bytes) / rq,
                "B");
    metrics.Add("store.write_amplification",
                ratio(static_cast<double>(sc.journal_bytes + sc.rewrite_bytes),
                      static_cast<double>(sc.journal_bytes)),
                "ratio");
    metrics.Add("store.append_us",
                ratio(static_cast<double>(sc.append_ns) / 1e3,
                      static_cast<double>(sc.appends)),
                "us");
    metrics.Add("store.syncs", static_cast<double>(sc.syncs), "count");
    metrics.Add("store.vacuums", static_cast<double>(sc.vacuums), "count");
    metrics.Add("store.recovery_ms", t.recovery_ms, "ms");
    metrics.Add("net.codec_us", static_cast<double>(t.codec_ns) / rq / 1e3,
                "us");
    metrics.Add("net.response_bytes",
                static_cast<double>(t.response_bytes) / rq, "B");
    auto total_us = [&](const char* name) {
      auto it = layers.total_ns.find(name);
      return it == layers.total_ns.end()
                 ? 0.0
                 : static_cast<double>(it->second) / rq / 1e3;
    };
    metrics.Add("cluster.scatter_ms", total_us("cluster.scatter") / 1e3,
                "ms");
    metrics.Add("cluster.merge_us",
                spec.nodes > 0 ? self_us("engine.tail") : 0.0, "us");
    metrics.Add("trace.overhead",
                ratio(static_cast<double>(passes[1].loop_ns + passes[2].loop_ns),
                      static_cast<double>(passes[0].loop_ns +
                                          passes[3].loop_ns)) -
                    1.0,
                "ratio");
    metrics.Add("trace.accounting_error", layers.accounting_error, "ratio");
    metrics.Add("trace.replayed_queries", static_cast<double>(replayed),
                "count");
  }

  deployment.Stop();

  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Number(std::max<int64_t>(tally.attempted, 1)));
  result.Set("failed", Json::Number(tally.failed));
  result.Set("metrics", metrics.ToJson());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
