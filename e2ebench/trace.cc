#include "e2ebench/trace.h"

#include <utility>

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

// Times one decorated call into `counter` and the thread's stage clock.
class StageTimer {
 public:
  explicit StageTimer(OpCounter& counter)
      : counter_(counter), start_(Clock::now()) {}
  ~StageTimer() {
    const int64_t elapsed = NanosSince(start_);
    counter_.Add(elapsed);
    ThreadStageNanos() += elapsed;
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  OpCounter& counter_;
  Clock::time_point start_;
};

class TimedWritableFile : public igq::durability::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<igq::durability::WritableFile> inner,
                    TimedFileSystem& fs)
      : inner_(std::move(inner)), fs_(fs) {}

  bool Append(const void* data, size_t size) override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->Append(data, size);
    fs_.append.Add(NanosSince(start));
    fs_.bytes.fetch_add(size, std::memory_order_relaxed);
    return ok;
  }
  bool Sync() override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->Sync();
    fs_.sync.Add(NanosSince(start));
    return ok;
  }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<igq::durability::WritableFile> inner_;
  TimedFileSystem& fs_;
};

}  // namespace

int64_t& ThreadStageNanos() {
  thread_local int64_t nanos = 0;
  return nanos;
}

void TimedMethod::Build(const igq::GraphDatabase& db) {
  StageTimer timer(build);
  inner_->Build(db);
}

std::unique_ptr<igq::PreparedQuery> TimedMethod::Prepare(
    const igq::Graph& query) const {
  StageTimer timer(prepare);
  return inner_->Prepare(query);
}

std::vector<igq::GraphId> TimedMethod::Filter(
    const igq::PreparedQuery& prepared) const {
  StageTimer timer(filter);
  std::vector<igq::GraphId> result = inner_->Filter(prepared);
  candidates.fetch_add(result.size(), std::memory_order_relaxed);
  return result;
}

bool TimedMethod::Verify(const igq::PreparedQuery& prepared,
                         igq::GraphId id) const {
  StageTimer timer(verify);
  const bool contained = inner_->Verify(prepared, id);
  if (contained) verified_true.fetch_add(1, std::memory_order_relaxed);
  return contained;
}

bool TimedMethod::OnAddGraph(const igq::GraphDatabase& db, igq::GraphId id) {
  StageTimer timer(on_add);
  return inner_->OnAddGraph(db, id);
}

bool TimedMethod::OnRemoveGraph(const igq::GraphDatabase& db,
                                igq::GraphId id) {
  StageTimer timer(on_remove);
  return inner_->OnRemoveGraph(db, id);
}

std::unique_ptr<igq::durability::WritableFile> TimedFileSystem::OpenForAppend(
    const std::string& path) {
  std::unique_ptr<igq::durability::WritableFile> file =
      inner_.OpenForAppend(path);
  if (file == nullptr) return nullptr;
  return std::make_unique<TimedWritableFile>(std::move(file), *this);
}

}  // namespace e2ebench
