#include "replay.h"

#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "api/database.h"
#include "common/json.h"
#include "core/physical_plan.h"
#include "llm/metering.h"
#include "net/frame.h"
#include "net/galois_client.h"
#include "net/galois_server.h"
#include "net/protocol.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace perfbench {

namespace fs = std::filesystem;
using galois::Json;
using galois::QueryResult;
using galois::Result;
using galois::Status;

namespace {

/// One replayed query: what Session::Query would have returned.
struct Replayed {
  galois::Relation relation;
  galois::llm::CostMeter cost;
  /// The executed plan; rendered for the response outside the spans.
  std::optional<galois::core::PhysicalPlan> physical;
};

/// Replays queries in-process through the public layer entry points
/// (ParseSelect, BuildLogicalPlan + BindPhysicalAnnotations, Compile,
/// ExecuteShard per LLM table, Execute over the shards as overlays),
/// with the model and the store wrapped for timing when traced. The
/// cluster workload scatters the shards to two in-process nodes over
/// loopback GALP instead of materialising locally.
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec,
           const galois::knowledge::SpiderLikeWorkload& workload,
           Tracer* tracer)
      : spec_(spec), workload_(workload), tracer_(tracer) {}

  ~Replayer() {
    clients_.clear();
    for (Node& n : nodes_) {
      if (n.server) n.server->Shutdown();
    }
    nodes_.clear();
    db_.reset();
  }

  Status Open(const std::vector<std::string>& pool,
              const std::string& store_dir, int64_t store_max_bytes) {
    if (spec_.nodes > 0) {
      nodes_.resize(static_cast<size_t>(spec_.nodes));
      for (Node& n : nodes_) {
        WorkloadSpec node_spec = spec_;
        node_spec.nodes = 0;
        GALOIS_ASSIGN_OR_RETURN(n.db, OpenDb(node_spec, &n.model, &n.timing,
                                             "", 0));
        n.server = std::make_unique<galois::net::GaloisServer>(
            n.db.get(), galois::net::ServerOptions());
        GALOIS_RETURN_IF_ERROR(n.server->Start());
        std::vector<galois::net::GaloisClient> slots;
        for (int s = 0; s < kSlotsPerNode; ++s) {
          galois::net::ClientOptions co;
          co.port = n.server->port();
          GALOIS_ASSIGN_OR_RETURN(galois::net::GaloisClient c,
                                  galois::net::GaloisClient::Connect(co));
          slots.push_back(std::move(c));
        }
        clients_.push_back(std::move(slots));
      }
      WorkloadSpec local = spec_;
      local.nodes = 0;
      GALOIS_ASSIGN_OR_RETURN(db_, OpenDb(local, &model_, &timing_, "", 0));
    } else {
      if (tracer_ != nullptr && !store_dir.empty()) {
        store_env_ = std::make_unique<TimingStoreEnv>(tracer_);
      }
      GALOIS_ASSIGN_OR_RETURN(
          db_, OpenDb(spec_, &model_, &timing_, store_dir, store_max_bytes));
    }
    if (spec_.warm_up) GALOIS_RETURN_IF_ERROR(RunPoolOnce(*db_, pool));
    // Measure from here: set-up traffic is not the replay's.
    round_trips_base_ = TotalRoundTrips();
    if (store_env_) store_base_ = store_env_->counters();
    return Status::OK();
  }

  Result<Replayed> Run(const std::string& sql, int64_t query_id) {
    if (tracer_ != nullptr) tracer_->BeginQuery(query_id);
    Result<Replayed> out = RunSpans(sql);
    if (tracer_ != nullptr) tracer_->EndQuery();
    return out;
  }

  int64_t round_trips() const { return TotalRoundTrips() - round_trips_base_; }
  StoreCounters store_counters() const {
    if (!store_env_) return StoreCounters();
    StoreCounters c = store_env_->counters();
    c.appends -= store_base_.appends;
    c.journal_bytes -= store_base_.journal_bytes;
    c.rewrite_bytes -= store_base_.rewrite_bytes;
    c.append_ns -= store_base_.append_ns;
    c.syncs -= store_base_.syncs;
    c.vacuums -= store_base_.vacuums;
    return c;
  }
  double recovery_ms() const {
    return db_ && db_->store() ? db_->store()->stats().recovery_micros / 1e3
                               : 0.0;
  }

 private:
  static constexpr int kSlotsPerNode = 4;

  int64_t TotalRoundTrips() const {
    int64_t n = timing_ ? timing_->round_trips() : 0;
    for (const Node& node : nodes_) {
      if (node.timing) n += node.timing->round_trips();
    }
    return n;
  }

  struct Node {
    std::unique_ptr<galois::llm::SimulatedLlm> model;
    std::unique_ptr<TimingLlm> timing;
    std::unique_ptr<galois::Database> db;
    std::unique_ptr<galois::net::GaloisServer> server;
  };

  Result<std::unique_ptr<galois::Database>> OpenDb(
      const WorkloadSpec& spec,
      std::unique_ptr<galois::llm::SimulatedLlm>* model,
      std::unique_ptr<TimingLlm>* timing, const std::string& store_dir,
      int64_t store_max_bytes) {
    *model = MakeModel(spec, workload_, spec.llm_delay_ms);
    galois::llm::LanguageModel* top = model->get();
    if (tracer_ != nullptr) {
      *timing = std::make_unique<TimingLlm>(model->get(), tracer_);
      top = timing->get();
    }
    return galois::Database::Open(MakeDatabaseOptions(
        spec, &workload_, top, store_dir, store_max_bytes,
        store_env_.get()));
  }

  Result<Replayed> RunSpans(const std::string& sql) {
    const galois::catalog::Catalog& catalog = db_->catalog();
    const galois::core::ExecutionOptions& options = db_->default_options();
    galois::sql::SelectStatement stmt;
    {
      ScopedSpan span(tracer_, "sql.parse");
      GALOIS_ASSIGN_OR_RETURN(stmt, galois::sql::ParseSelect(sql));
    }
    galois::planner::PlanNodePtr plan;
    {
      ScopedSpan span(tracer_, "planner.plan");
      GALOIS_ASSIGN_OR_RETURN(plan,
                              galois::planner::BuildLogicalPlan(stmt, catalog));
      GALOIS_RETURN_IF_ERROR(
          galois::planner::BindPhysicalAnnotations(
              plan.get(), catalog, galois::core::BindingOptionsFor(options))
              .status());
    }
    std::optional<galois::core::PhysicalPlan> physical;
    {
      ScopedSpan span(tracer_, "core.compile");
      GALOIS_ASSIGN_OR_RETURN(
          physical, galois::core::PhysicalPlan::Compile(std::move(plan),
                                                        &catalog, options));
    }
    // One tap for the whole query, as Session::Query bills it: the
    // meter sums round trips in the order they happen.
    galois::llm::CostTap tap(db_->model());
    std::vector<galois::core::TableOverlay> overlays;
    if (!nodes_.empty()) {
      GALOIS_RETURN_IF_ERROR(Scatter(sql, *physical, &overlays));
    } else {
      ScopedSpan span(tracer_, "core.execute");
      for (const galois::core::ShardSpec& shard : physical->LlmShards()) {
        galois::core::ShardRequest request;
        request.sql = sql;
        request.table = shard.table;
        request.alias = shard.alias;
        request.columns = shard.columns;
        request.descriptor = shard.descriptor;
        GALOIS_ASSIGN_OR_RETURN(
            galois::core::QueryOutput out,
            physical->ExecuteShard(request, &tap,
                                   db_->materialisation_cache()));
        overlays.push_back({shard.alias, std::move(out.relation)});
      }
    }
    Replayed replayed;
    {
      ScopedSpan span(tracer_, "engine.tail");
      physical->SetOverlays(std::move(overlays));
      GALOIS_ASSIGN_OR_RETURN(
          galois::core::QueryOutput out,
          physical->Execute(&tap, db_->materialisation_cache()));
      replayed.relation = std::move(out.relation);
    }
    replayed.cost = extra_cost_;
    replayed.cost += tap.cost();
    extra_cost_ = galois::llm::CostMeter();
    replayed.physical = std::move(physical);
    return replayed;
  }

  /// The coordinator's scatter: one PartialQuery per LLM table, in
  /// parallel, meters summed in FROM order.
  Status Scatter(const std::string& sql,
                 const galois::core::PhysicalPlan& physical,
                 std::vector<galois::core::TableOverlay>* overlays) {
    ScopedSpan span(tracer_, "cluster.scatter");
    const std::vector<galois::core::ShardSpec> shards = physical.LlmShards();
    const size_t n = nodes_.size();
    if (shards.size() > n * kSlotsPerNode) {
      return Status::Internal("replay: more shards than client slots");
    }
    std::vector<Result<galois::net::PartialQueryResponse>> responses(
        shards.size(), Status::Internal("replay: shard not dispatched"));
    {
      std::vector<std::thread> threads;
      for (size_t k = 0; k < shards.size(); ++k) {
        threads.emplace_back([&, k] {
          galois::net::PartialQueryRequest request;
          request.sql = sql;
          request.table = shards[k].table;
          request.alias = shards[k].alias;
          request.columns = shards[k].columns;
          request.descriptor = shards[k].descriptor;
          responses[k] = clients_[k % n][k / n].PartialQuery(request);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    galois::llm::CostMeter cost;
    for (size_t k = 0; k < shards.size(); ++k) {
      if (!responses[k].ok()) return responses[k].status();
      galois::net::PartialQueryResponse& r = responses[k].value();
      cost += r.cost;
      overlays->push_back({shards[k].alias, std::move(r.relation)});
    }
    extra_cost_ = std::move(cost);
    return Status::OK();
  }

  const WorkloadSpec& spec_;
  const galois::knowledge::SpiderLikeWorkload& workload_;
  Tracer* tracer_;
  // Declaration order is teardown order, reversed: clients, servers and
  // databases go before the models and store env they borrow.
  std::unique_ptr<TimingStoreEnv> store_env_;
  std::unique_ptr<galois::llm::SimulatedLlm> model_;
  std::unique_ptr<TimingLlm> timing_;
  std::unique_ptr<galois::Database> db_;
  std::vector<Node> nodes_;
  std::vector<std::vector<galois::net::GaloisClient>> clients_;
  galois::llm::CostMeter extra_cost_;  // shard meters of the current query
  int64_t round_trips_base_ = 0;
  StoreCounters store_base_;
};

/// Encodes and decodes one query exchange the way client and server do
/// (request and response frames, JSON codecs); returns the response
/// frame's size.
Result<int64_t> CodecRoundTrip(const std::string& sql,
                               const QueryResult& result) {
  galois::net::QueryRequest request;
  request.sql = sql;
  const std::string req = galois::net::QueryRequestToJson(request).Dump();
  const std::string req_header = galois::net::EncodeFrameHeader(
      galois::net::FrameType::kQuery, req.size());
  GALOIS_ASSIGN_OR_RETURN(Json req_json, Json::Parse(req));
  GALOIS_RETURN_IF_ERROR(
      galois::net::QueryRequestFromJson(req_json).status());
  const std::string resp = galois::net::QueryResultToJson(result).Dump();
  const std::string resp_header = galois::net::EncodeFrameHeader(
      galois::net::FrameType::kQueryResult, resp.size());
  int64_t payload = 0;
  GALOIS_RETURN_IF_ERROR(
      galois::net::DecodeFrameHeader(resp_header, &payload).status());
  GALOIS_ASSIGN_OR_RETURN(Json resp_json, Json::Parse(resp));
  GALOIS_RETURN_IF_ERROR(
      galois::net::QueryResultFromJson(resp_json).status());
  return static_cast<int64_t>(resp_header.size() + resp.size());
}

}  // namespace

Result<ReplayPass> ReplayOnce(const WorkloadSpec& spec,
                              const galois::knowledge::SpiderLikeWorkload& w,
                              const std::vector<std::string>& pool,
                              const Oracle& oracle,
                              const std::vector<size_t>& order,
                              const std::string& pristine_journal,
                              const std::string& store_dir,
                              int64_t store_max_bytes, bool traced,
                              int64_t time_limit_ns) {
  ReplayPass pass;
  std::unique_ptr<Tracer> tracer;
  if (traced) tracer = std::make_unique<Tracer>();
  if (!store_dir.empty()) {
    std::error_code ec;
    fs::remove_all(store_dir, ec);
    fs::create_directories(store_dir);
    fs::copy_file(pristine_journal, store_dir + "/galois.store");
  }
  {
    Replayer replayer(spec, w, tracer.get());
    GALOIS_RETURN_IF_ERROR(
        replayer.Open(pool, store_dir, store_max_bytes));
    const int64_t start = NowNs();
    for (size_t i = 0; i < order.size(); ++i) {
      if (time_limit_ns > 0 && NowNs() - start > time_limit_ns) break;
      const std::string& sql = pool[order[i]];
      GALOIS_ASSIGN_OR_RETURN(Replayed r,
                              replayer.Run(sql, static_cast<int64_t>(i) + 1));
      QueryResult result;
      result.relation = std::move(r.relation);
      result.cost = std::move(r.cost);
      result.physical_plan = r.physical->Render();
      const int64_t c0 = NowNs();
      GALOIS_ASSIGN_OR_RETURN(int64_t bytes, CodecRoundTrip(sql, result));
      pass.codec_ns += NowNs() - c0;
      pass.response_bytes += bytes;
      if (pass.wrong.empty()) {
        const std::string wrong =
            oracle.Mismatch(order[i], result.relation, result.cost);
        if (!wrong.empty()) pass.wrong = sql + ": " + wrong;
      }
      pass.relations.push_back(RelationBytes(result.relation));
      pass.meters.push_back(MeterBytes(result.cost));
    }
    pass.loop_ns = NowNs() - start;
    pass.round_trips = replayer.round_trips();
    pass.recovery_ms = replayer.recovery_ms();
    pass.store = replayer.store_counters();
  }
  if (tracer) pass.spans = tracer->spans();
  return pass;
}

}  // namespace perfbench
