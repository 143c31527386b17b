// Tracing for the per-layer run: an in-memory span recorder, and the two
// pure-forwarding wrappers that time the layers the replay cannot wrap
// from outside — the model (a LanguageModel registered as an external
// backend) and the store (a StoreEnv set in StoreOptions::env).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "llm/language_model.h"
#include "store/store_env.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` is the id of the span that caused it
/// (0 for a root); every span of one query carries the query's id.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t query = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records spans in memory; WriteJson dumps them when the run ends.
///
/// The replay drives one query at a time from a single thread, which
/// opens and closes the layer spans it calls into. Spans measured on
/// other threads (model calls served by in-process cluster nodes) are
/// parented to the replay thread's innermost open span — the call that
/// is waiting on them. Store work on another thread is the store's
/// background vacuum, which no query waits for: it is recorded as a
/// root span outside every query.
class Tracer {
 public:
  Tracer();

  void BeginQuery(int64_t query);
  void EndQuery();
  /// Replay thread only.
  int64_t Open(const char* name);
  void Close(int64_t id);
  /// Any thread: a finished interval measured by a wrapper.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              bool store);

  std::vector<Span> spans() const;

 private:
  const std::thread::id replay_thread_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;        // guarded by mu_
  std::vector<size_t> open_;       // indexes into spans_, guarded by mu_
  int64_t query_ = 0;              // guarded by mu_
};

/// RAII span on the replay thread; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Open(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time per layer (span name) over every query, and the query
/// spans' total. Within one query a layer's self time is the union of its
/// spans minus the union of their children: concurrent spans of one layer
/// count once.
struct LayerTimes {
  std::map<std::string, int64_t> self_ns;
  std::map<std::string, int64_t> total_ns;
  int64_t query_ns = 0;
  int64_t queries = 0;
  /// |sum of layer self times (query spans' own self time excluded) -
  /// query span total| / query span total. Zero when the layers account
  /// for the whole query and no two layers overlap.
  double accounting_error = 0.0;
};
LayerTimes AnalyseSpans(const std::vector<Span>& spans);

/// Writes the spans as a JSON array to `path`.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

/// Times every round trip of the wrapped model; otherwise a pure
/// forwarder (name, answers, metered usage and cost pass through).
class TimingLlm : public galois::llm::LanguageModel {
 public:
  TimingLlm(galois::llm::LanguageModel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  galois::Result<galois::llm::Completion> Complete(
      const galois::llm::Prompt& prompt) override;
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatch(
      const std::vector<galois::llm::Prompt>& prompts) override;
  galois::Result<galois::llm::Completion> CompleteMetered(
      const galois::llm::Prompt& prompt,
      galois::llm::CostMeter* usage) override;
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatchMetered(
      const std::vector<galois::llm::Prompt>& prompts,
      galois::llm::CostMeter* usage) override;
  galois::llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  int64_t round_trips() const { return round_trips_.load(); }

 private:
  template <typename Fn>
  auto Timed(const Fn& fn) -> decltype(fn());

  galois::llm::LanguageModel* inner_;
  Tracer* tracer_;
  std::atomic<int64_t> round_trips_{0};
};

/// Counters of the store's file traffic, as seen through TimingStoreEnv.
struct StoreCounters {
  int64_t appends = 0;          // Append calls on the journal
  int64_t journal_bytes = 0;    // bytes appended to the journal
  int64_t rewrite_bytes = 0;    // bytes written by vacuum rewrites
  int64_t append_ns = 0;        // time in journal Append calls
  int64_t syncs = 0;
  int64_t vacuums = 0;          // journal swaps (rename over the journal)
};

/// Times and counts the store's file operations over the default POSIX
/// environment; otherwise a pure forwarder.
class TimingStoreEnv : public galois::store::StoreEnv {
 public:
  explicit TimingStoreEnv(Tracer* tracer);

  galois::Result<std::unique_ptr<galois::store::AppendFile>> OpenAppend(
      const std::string& path) override;
  galois::Result<std::unique_ptr<galois::store::FileView>> OpenView(
      const std::string& path, bool prefer_mmap) override;
  bool FileExists(const std::string& path) override;
  galois::Result<int64_t> FileSize(const std::string& path) override;
  galois::Status Truncate(const std::string& path, int64_t size) override;
  galois::Status Rename(const std::string& from,
                        const std::string& to) override;
  galois::Status Remove(const std::string& path) override;
  galois::Status CreateDir(const std::string& path) override;
  galois::Status SyncDir(const std::string& path) override;
  int64_t NowMicros() override;

  StoreCounters counters() const;

 private:
  class File;

  galois::store::StoreEnv* inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  StoreCounters counters_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
