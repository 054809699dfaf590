// Timing decorators for the traced run. Each wraps one layer's public
// interface — the host Method and the durability FileSystem — and records
// how often and how long it was called, so per-layer numbers come from the
// benchmark's own files rather than from instrumentation inside the
// library. Counters are atomics because the serving workload calls the
// method from several client threads; the per-thread stage clock lets the
// caller attribute method time to the query running on its own thread.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/fault_fs.h"
#include "methods/method.h"

namespace e2ebench {

/// Calls and nanoseconds spent in one operation of a layer.
struct OpCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> nanos{0};

  void Add(int64_t elapsed_nanos) {
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(elapsed_nanos, std::memory_order_relaxed);
  }
  double MeanMicros() const {
    const uint64_t n = calls.load();
    return n == 0 ? 0.0 : static_cast<double>(nanos.load()) * 1e-3 / n;
  }
};

/// Nanoseconds the calling thread has spent inside decorated method calls
/// since its last reset; the stage-sum check reads it around each query.
int64_t& ThreadStageNanos();

/// Method decorator timing Prepare, Filter, Verify and the mutation hooks.
class TimedMethod : public igq::Method {
 public:
  explicit TimedMethod(std::unique_ptr<igq::Method> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  igq::QueryDirection Direction() const override {
    return inner_->Direction();
  }
  void Build(const igq::GraphDatabase& db) override;
  std::unique_ptr<igq::PreparedQuery> Prepare(
      const igq::Graph& query) const override;
  std::vector<igq::GraphId> Filter(
      const igq::PreparedQuery& prepared) const override;
  bool Verify(const igq::PreparedQuery& prepared,
              igq::GraphId id) const override;
  size_t IndexMemoryBytes() const override {
    return inner_->IndexMemoryBytes();
  }
  bool SaveIndex(std::ostream& out) const override {
    return inner_->SaveIndex(out);
  }
  bool LoadIndex(const igq::GraphDatabase& db, std::istream& in) override {
    return inner_->LoadIndex(db, in);
  }
  bool OnAddGraph(const igq::GraphDatabase& db, igq::GraphId id) override;
  bool OnRemoveGraph(const igq::GraphDatabase& db, igq::GraphId id) override;

  mutable OpCounter build, prepare, filter, verify, on_add, on_remove;
  mutable std::atomic<uint64_t> candidates{0};
  mutable std::atomic<uint64_t> verified_true{0};

 private:
  std::unique_ptr<igq::Method> inner_;
};

/// FileSystem decorator timing the appends and syncs of the files it opens.
class TimedFileSystem : public igq::durability::FileSystem {
 public:
  explicit TimedFileSystem(igq::durability::FileSystem& inner)
      : inner_(inner) {}

  std::unique_ptr<igq::durability::WritableFile> OpenForAppend(
      const std::string& path) override;
  bool ReadFile(const std::string& path, std::string* contents) override {
    return inner_.ReadFile(path, contents);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return inner_.Rename(from, to);
  }
  bool Exists(const std::string& path) override { return inner_.Exists(path); }
  bool Remove(const std::string& path) override { return inner_.Remove(path); }
  std::vector<std::string> ListDir(const std::string& dir) override {
    return inner_.ListDir(dir);
  }

  OpCounter append, sync;
  std::atomic<uint64_t> bytes{0};

 private:
  igq::durability::FileSystem& inner_;
};

/// Nanoseconds elapsed since `start` on the steady clock.
inline int64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
