#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

using galois::Result;
using galois::Status;

Tracer::Tracer() : replay_thread_(std::this_thread::get_id()) {
  spans_.reserve(1 << 16);
}

void Tracer::BeginQuery(int64_t query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    query_ = query;
  }
  Open("query");
}

void Tracer::EndQuery() {
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_.empty()) return;
    id = spans_[open_.front()].id;
  }
  Close(id);
}

int64_t Tracer::Open(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.query = query_;
  s.name = name;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return s.id;
}

void Tracer::Close(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  // Spans close innermost-first; closing an outer span closes any inner
  // span left open by an early return.
  while (!open_.empty()) {
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.end_ns = now;
    if (s.id == id) break;
  }
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    bool store) {
  const bool foreign = std::this_thread::get_id() != replay_thread_;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  if (!(store && foreign) && !open_.empty()) {
    s.parent = spans_[open_.back()].id;
    s.query = query_;
  }
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

using Interval = std::pair<int64_t, int64_t>;

/// Total length of the union of `v` (sorted in place).
int64_t UnionLength(std::vector<Interval>* v) {
  std::sort(v->begin(), v->end());
  int64_t total = 0, a = 0, b = 0;
  bool open = false;
  for (const auto& [x, y] : *v) {
    if (open && x <= b) {
      b = std::max(b, y);
      continue;
    }
    if (open) total += b - a;
    a = x;
    b = y;
    open = true;
  }
  if (open) total += b - a;
  return total;
}

}  // namespace

LayerTimes AnalyseSpans(const std::vector<Span>& spans) {
  // Per query and layer: the union of the layer's spans, and the union
  // of their children. Spans of one layer that overlap (concurrent model
  // calls of a scatter) count once: the layer's time is the wall time
  // during which it was busy.
  struct Layer {
    std::vector<Interval> own, children;
  };
  std::unordered_map<int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<std::pair<int64_t, std::string>, Layer> layers;
  LayerTimes out;
  for (const Span& s : spans) {
    const bool is_query = std::string(s.name) == "query";
    if (s.parent == 0 && !is_query) continue;  // background work
    layers[{s.query, s.name}].own.emplace_back(s.start_ns, s.end_ns);
    out.total_ns[s.name] += s.end_ns - s.start_ns;
    if (is_query) {
      out.query_ns += s.end_ns - s.start_ns;
      ++out.queries;
    }
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end()) {
      const Span& p = *parent->second;
      const int64_t a = std::max(s.start_ns, p.start_ns);
      const int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) layers[{p.query, p.name}].children.emplace_back(a, b);
    }
  }
  int64_t layers_ns = 0;
  for (auto& [key, layer] : layers) {
    const int64_t self =
        UnionLength(&layer.own) - UnionLength(&layer.children);
    out.self_ns[key.second] += self;
    if (key.second != "query") layers_ns += self;
  }
  if (out.query_ns > 0) {
    const double diff = static_cast<double>(layers_ns - out.query_ns);
    out.accounting_error =
        (diff < 0 ? -diff : diff) / static_cast<double>(out.query_ns);
  }
  return out;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"query\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// --- TimingLlm ---------------------------------------------------------

template <typename Fn>
auto TimingLlm::Timed(const Fn& fn) -> decltype(fn()) {
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  round_trips_.fetch_add(1);
  if (tracer_ != nullptr) tracer_->Record("llm.call", start, end, false);
  return result;
}

Result<galois::llm::Completion> TimingLlm::Complete(
    const galois::llm::Prompt& prompt) {
  return Timed([&] { return inner_->Complete(prompt); });
}

Result<std::vector<galois::llm::Completion>> TimingLlm::CompleteBatch(
    const std::vector<galois::llm::Prompt>& prompts) {
  return Timed([&] { return inner_->CompleteBatch(prompts); });
}

Result<galois::llm::Completion> TimingLlm::CompleteMetered(
    const galois::llm::Prompt& prompt, galois::llm::CostMeter* usage) {
  return Timed([&] { return inner_->CompleteMetered(prompt, usage); });
}

Result<std::vector<galois::llm::Completion>> TimingLlm::CompleteBatchMetered(
    const std::vector<galois::llm::Prompt>& prompts,
    galois::llm::CostMeter* usage) {
  return Timed([&] { return inner_->CompleteBatchMetered(prompts, usage); });
}

// --- TimingStoreEnv ----------------------------------------------------

/// An append file that reports its traffic to the owning env.
class TimingStoreEnv::File : public galois::store::AppendFile {
 public:
  File(TimingStoreEnv* env, std::unique_ptr<galois::store::AppendFile> inner,
       bool rewrite)
      : env_(env), inner_(std::move(inner)), rewrite_(rewrite) {}

  Status Append(const char* data, size_t size) override {
    const int64_t start = NowNs();
    Status s = inner_->Append(data, size);
    const int64_t end = NowNs();
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      if (rewrite_) {
        env_->counters_.rewrite_bytes += static_cast<int64_t>(size);
      } else {
        ++env_->counters_.appends;
        env_->counters_.journal_bytes += static_cast<int64_t>(size);
        env_->counters_.append_ns += end - start;
      }
    }
    if (env_->tracer_ != nullptr) {
      env_->tracer_->Record("store.append", start, end, true);
    }
    return s;
  }

  Status Sync() override {
    const int64_t start = NowNs();
    Status s = inner_->Sync();
    const int64_t end = NowNs();
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      ++env_->counters_.syncs;
    }
    if (env_->tracer_ != nullptr) {
      env_->tracer_->Record("store.sync", start, end, true);
    }
    return s;
  }

 private:
  TimingStoreEnv* env_;
  std::unique_ptr<galois::store::AppendFile> inner_;
  bool rewrite_;
};

TimingStoreEnv::TimingStoreEnv(Tracer* tracer)
    : inner_(galois::store::StoreEnv::Default()), tracer_(tracer) {}

Result<std::unique_ptr<galois::store::AppendFile>> TimingStoreEnv::OpenAppend(
    const std::string& path) {
  GALOIS_ASSIGN_OR_RETURN(std::unique_ptr<galois::store::AppendFile> inner,
                          inner_->OpenAppend(path));
  const bool rewrite =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".tmp") == 0;
  return std::unique_ptr<galois::store::AppendFile>(
      new File(this, std::move(inner), rewrite));
}

Result<std::unique_ptr<galois::store::FileView>> TimingStoreEnv::OpenView(
    const std::string& path, bool prefer_mmap) {
  const int64_t start = NowNs();
  auto view = inner_->OpenView(path, prefer_mmap);
  if (tracer_ != nullptr) {
    tracer_->Record("store.read", start, NowNs(), true);
  }
  return view;
}

bool TimingStoreEnv::FileExists(const std::string& path) {
  return inner_->FileExists(path);
}

Result<int64_t> TimingStoreEnv::FileSize(const std::string& path) {
  return inner_->FileSize(path);
}

Status TimingStoreEnv::Truncate(const std::string& path, int64_t size) {
  return inner_->Truncate(path, size);
}

Status TimingStoreEnv::Rename(const std::string& from, const std::string& to) {
  Status s = inner_->Rename(from, to);
  if (s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.vacuums;
  }
  return s;
}

Status TimingStoreEnv::Remove(const std::string& path) {
  return inner_->Remove(path);
}

Status TimingStoreEnv::CreateDir(const std::string& path) {
  return inner_->CreateDir(path);
}

Status TimingStoreEnv::SyncDir(const std::string& path) {
  return inner_->SyncDir(path);
}

int64_t TimingStoreEnv::NowMicros() { return inner_->NowMicros(); }

StoreCounters TimingStoreEnv::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace perfbench
