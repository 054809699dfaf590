// End-to-end benchmark of the iGQ library: runs one named workload under a
// seed for a given number of measured seconds, checks every answer, and
// prints one JSON line with the run's metrics.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics (plain library, stats off);
// --trace 1 wraps the method and the WAL's file system in the timing
// decorators of trace.h, collects QueryStats and cache gauges, and reports
// the per-layer metrics instead. README.md describes the workloads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/profiles.h"
#include "durability/fault_fs.h"
#include "durability/wal.h"
#include "e2ebench/oracle.h"
#include "e2ebench/trace.h"
#include "features/canonical.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "methods/registry.h"
#include "workload/query_generator.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using igq::Graph;
using igq::GraphId;

// Taken during static initialization, before main: set-up is timed from
// (nearly) the start of the process.
const Clock::time_point kProcessStart = Clock::now();

// Every kOracleStride-th measured query is checked against the brute-force
// oracle, at most kOracleSamples per run.
constexpr size_t kOracleStride = 211;
constexpr size_t kOracleSamples = 12;
// The dataset is the same in every run, so runs under different seeds
// differ only in their query streams and mutation scripts.
constexpr uint64_t kDatasetSeed = 2016;
// Where results, traces and the temporary WAL go, relative to the checkout.
constexpr const char* kOutDir = "e2ebench/out";

// The paper's defaults (§7.1): cache size C, window W and Zipf skew α.
constexpr size_t kCacheCapacity = 500;
constexpr size_t kWindowSize = 100;
constexpr double kZipfAlpha = 1.4;

struct Workload {
  const char* name;
  const char* profile;          // MakeDataset profile, at scale 1.0
  const char* method;           // MethodRegistry name
  const char* query_dist;       // MakeWorkloadSpec name
  size_t clients;               // 0 = sequential QueryEngine
  size_t queries_per_mutation;  // 0 = read-only
  size_t round_queries;         // queries per round, the unit of work
};

constexpr Workload kWorkloads[] = {
    {"pdbs-skewed", "pdbs", "grapes", "zipf-zipf", 0, 0, 100},
    {"pdbs-uniform", "pdbs", "grapes", "uni-uni", 0, 0, 100},
    {"aids-churn", "aids", "ggsx", "zipf-uni", 0, 3, 60},
    {"aids-serve", "aids", "ctindex", "zipf-uni", 3, 0, 3000},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args->workload != nullptr;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return igq::SplitMix64(state);
}

// Nearest-rank quantile of nanosecond samples, in microseconds.
double QuantileMicros(std::vector<int64_t> nanos, double q) {
  if (nanos.empty()) return 0;
  std::sort(nanos.begin(), nanos.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(nanos.size())));
  return static_cast<double>(nanos[std::clamp<size_t>(rank, 1, nanos.size()) -
                                   1]) *
         1e-3;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One measured query as the traced run records it (the spans it writes).
struct TraceRow {
  int64_t process_nanos = 0;   // around the Process call
  int64_t method_nanos = 0;    // decorated Prepare + Filter + Verify inside it
  int64_t canonical_nanos = 0; // GraphCanonicalCode on the query, outside it
  igq::QueryStats stats;
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args), w_(*args.workload) {}

  int Run();

 private:
  bool SetUp();
  // Runs `queries` through the engine as one round: sequentially, or over
  // the workload's client threads. Fills latencies and answers; returns the
  // round's wall time in nanoseconds.
  int64_t RunQueries(const std::vector<igq::WorkloadQuery>& queries,
                     std::vector<std::vector<GraphId>>* answers,
                     std::vector<int64_t>* latencies,
                     std::vector<TraceRow>* rows);
  int64_t ProcessOne(const Graph& query, std::vector<GraphId>* answer,
                     TraceRow* row);
  // Checks one answer against the current database; samples the oracle.
  void CheckAnswer(const igq::WorkloadQuery& query,
                   const std::vector<GraphId>& answer, bool oracle);
  // Keeps one measured query's latency (and trace row), then checks it.
  void RecordQuery(const igq::WorkloadQuery& query,
                   const std::vector<GraphId>& answer, int64_t nanos,
                   const TraceRow* row, size_t measured);
  void Fail(const std::string& what);
  std::vector<igq::WorkloadQuery> NextQueries(size_t count);
  igq::GraphMutation NextMutation(size_t* base_index);
  int64_t ApplyMutation();
  bool Warm();
  void Measure();
  void FinalChecks();
  std::vector<Metric> EndToEndMetrics() const;
  std::vector<Metric> LayerMetrics() const;
  void WriteOutputs(const std::string& json) const;

  const Args args_;
  const Workload& w_;
  igq::GraphDatabase db_;
  std::vector<Graph> base_;  // the initial graphs: query sources and add copies
  std::unique_ptr<igq::Method> method_;
  TimedMethod* timed_ = nullptr;  // == method_ in the traced run
  std::unique_ptr<igq::QueryEngine> engine_;
  std::unique_ptr<igq::ConcurrentQueryEngine> serve_;
  std::unique_ptr<TimedFileSystem> timed_fs_;
  std::unique_ptr<igq::durability::WalWriter> wal_;
  std::string wal_dir_;

  double setup_seconds_ = 0;
  int64_t setup_build_nanos_ = 0;
  size_t chunks_ = 0;
  bool correct_ = true;
  uint64_t failed_ = 0;
  size_t oracle_checks_ = 0;
  bool self_tested_ = false;

  // Measured segment.
  int64_t active_nanos_ = 0;
  std::vector<int64_t> query_nanos_;
  std::vector<int64_t> mutation_nanos_;
  std::vector<TraceRow> rows_;
  uint64_t pipeline_executions_ = 0;
  uint64_t coalesced_hits_ = 0;
  uint64_t flushes_ = 0;
  size_t last_window_fill_ = 0;
  std::mutex window_mutex_;

  // Mutations (aids-churn).
  igq::Rng mutation_rng_{1};
  std::vector<GraphId> live_;
  std::vector<AppliedMutation> applied_;
  size_t initial_live_ = 0;
  size_t adds_ = 0;
  size_t removes_ = 0;
  int64_t hook_nanos_ = 0;
  int64_t wal_nanos_ = 0;
};

void Runner::Fail(const std::string& what) {
  if (correct_) std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  correct_ = false;
}

bool Runner::SetUp() {
  db_ = igq::MakeDataset(w_.profile, 1.0, kDatasetSeed);
  base_ = db_.graphs;
  method_ = igq::MethodRegistry::Create(igq::QueryDirection::kSubgraph,
                                        w_.method);
  if (method_ == nullptr) return false;
  if (args_.trace) {
    auto timed = std::make_unique<TimedMethod>(std::move(method_));
    timed_ = timed.get();
    method_ = std::move(timed);
  }
  method_->Build(db_);

  igq::IgqOptions options;
  options.cache_capacity = kCacheCapacity;
  options.window_size = kWindowSize;
  options.verify_threads = 1;
  if (w_.clients > 0) {
    serve_ = std::make_unique<igq::ConcurrentQueryEngine>(db_, method_.get(),
                                                          options);
  } else {
    engine_ = std::make_unique<igq::QueryEngine>(db_, method_.get(), options);
  }

  if (w_.queries_per_mutation > 0) {
    wal_dir_ = std::string(kOutDir) + "/wal-" + w_.name + "-" +
               std::to_string(::getpid());
    std::error_code error;
    std::filesystem::remove_all(wal_dir_, error);
    std::filesystem::create_directories(wal_dir_, error);
    if (error) return false;
    igq::durability::FileSystem* fs =
        &igq::durability::RealFileSystem::Instance();
    if (args_.trace) {
      timed_fs_ = std::make_unique<TimedFileSystem>(*fs);
      fs = timed_fs_.get();
    }
    igq::durability::WalOptions wal_options;
    wal_options.sync_policy = igq::durability::SyncPolicy::kEveryRecord;
    wal_ = std::make_unique<igq::durability::WalWriter>(*fs, wal_dir_,
                                                        wal_options);
    if (!wal_->Open(db_.mutation_epoch, 1)) return false;
    engine_->AttachWal(wal_.get());
    mutation_rng_ = igq::Rng(MixSeed(args_.seed, 0x6d7574));
    for (GraphId id = 0; id < db_.graphs.size(); ++id) live_.push_back(id);
    initial_live_ = db_.NumLive();
  }
  setup_seconds_ = SecondsSince(kProcessStart);
  if (timed_ != nullptr) setup_build_nanos_ = timed_->build.nanos.load();
  return true;
}

std::vector<igq::WorkloadQuery> Runner::NextQueries(size_t count) {
  const igq::WorkloadSpec spec = igq::MakeWorkloadSpec(
      w_.query_dist, kZipfAlpha, count, MixSeed(args_.seed, ++chunks_));
  return igq::GenerateWorkload(base_, spec);
}

int64_t Runner::ProcessOne(const Graph& query, std::vector<GraphId>* answer,
                           TraceRow* row) {
  igq::QueryStats* stats = row != nullptr ? &row->stats : nullptr;
  if (row != nullptr) ThreadStageNanos() = 0;
  const Clock::time_point start = Clock::now();
  *answer = serve_ != nullptr ? serve_->Process(query, stats)
                              : engine_->Process(query, stats);
  const int64_t elapsed = NanosSince(start);
  if (row != nullptr) {
    row->process_nanos = elapsed;
    row->method_nanos = ThreadStageNanos();
    // Flushes empty the window; read between queries, a drop counts one.
    const size_t fill = serve_ != nullptr ? serve_->cache().window_fill()
                                          : engine_->cache().window_fill();
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (fill < last_window_fill_) ++flushes_;
    last_window_fill_ = fill;
  }
  return elapsed;
}

int64_t Runner::RunQueries(const std::vector<igq::WorkloadQuery>& queries,
                           std::vector<std::vector<GraphId>>* answers,
                           std::vector<int64_t>* latencies,
                           std::vector<TraceRow>* rows) {
  answers->assign(queries.size(), {});
  latencies->assign(queries.size(), 0);
  if (rows != nullptr) rows->assign(queries.size(), {});
  std::atomic<size_t> next{0};
  auto client = [&] {
    for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
      (*latencies)[i] =
          ProcessOne(queries[i].graph, &(*answers)[i],
                     rows != nullptr ? &(*rows)[i] : nullptr);
    }
  };
  const Clock::time_point start = Clock::now();
  if (w_.clients == 0) {
    client();
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < w_.clients; ++c) threads.emplace_back(client);
    for (std::thread& thread : threads) thread.join();
  }
  return NanosSince(start);
}

void Runner::CheckAnswer(const igq::WorkloadQuery& query,
                         const std::vector<GraphId>& answer, bool oracle) {
  const std::string shape = CheckAnswerShape(
      answer, db_, static_cast<GraphId>(query.source_graph));
  if (!shape.empty()) Fail(shape);
  if (!oracle) return;
  const std::vector<GraphId> expected = BruteForceAnswer(db_, query.graph);
  const std::string verdict = CheckAgainstOracle(answer, expected);
  if (!verdict.empty()) Fail(verdict);
  ++oracle_checks_;
}

igq::GraphMutation Runner::NextMutation(size_t* base_index) {
  // Adds copy a random initial graph; removes pick a random live graph.
  // The live count stays near its start.
  if (mutation_rng_.Chance(0.5) || live_.size() <= initial_live_ / 2) {
    *base_index = mutation_rng_.Below(base_.size());
    return igq::GraphMutation::Add(base_[*base_index]);
  }
  const size_t slot = mutation_rng_.Below(live_.size());
  const GraphId id = live_[slot];
  live_[slot] = live_.back();
  live_.pop_back();
  *base_index = SIZE_MAX;
  return igq::GraphMutation::Remove(id);
}

int64_t Runner::ApplyMutation() {
  size_t base_index = SIZE_MAX;
  const igq::GraphMutation mutation = NextMutation(&base_index);
  auto hook_nanos = [this] {
    return timed_ == nullptr ? 0
                             : timed_->on_add.nanos.load() +
                                   timed_->on_remove.nanos.load() +
                                   timed_->build.nanos.load();
  };
  auto wal_nanos = [this] {
    return timed_fs_ == nullptr
               ? 0
               : timed_fs_->append.nanos.load() + timed_fs_->sync.nanos.load();
  };
  const int64_t hooks_before = hook_nanos();
  const int64_t wal_before = wal_nanos();
  const Clock::time_point start = Clock::now();
  const igq::MutationResult result = engine_->ApplyMutation(db_, mutation);
  const int64_t elapsed = NanosSince(start);
  hook_nanos_ += hook_nanos() - hooks_before;
  wal_nanos_ += wal_nanos() - wal_before;

  if (!result.applied || result.wal_failed) {
    ++failed_;
    return elapsed;
  }
  AppliedMutation applied;
  applied.kind = mutation.kind;
  applied.wal_sequence = result.wal_sequence;
  applied.epoch = result.epoch;
  if (mutation.kind == igq::MutationKind::kAddGraph) {
    applied.added = &base_[base_index];
    live_.push_back(result.id);
    ++adds_;
  } else {
    applied.id = mutation.id;
    ++removes_;
  }
  applied_.push_back(applied);
  return elapsed;
}

bool Runner::Warm() {
  // Warm-up fills the cache to capacity (every window flushed once more)
  // before timing starts; its answers are checked like measured ones.
  std::vector<std::vector<GraphId>> answers;
  std::vector<int64_t> latencies;
  const std::vector<igq::WorkloadQuery> queries =
      NextQueries(kCacheCapacity + kWindowSize);
  RunQueries(queries, &answers, &latencies, nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    CheckAnswer(queries[i], answers[i], false);
    // The first answer of two or more ids, once the oracle confirms it,
    // seeds the self-test of every check.
    if (self_tested_ || answers[i].size() < 2) continue;
    const std::string verdict = CheckAgainstOracle(
        answers[i], BruteForceAnswer(db_, queries[i].graph));
    if (!verdict.empty()) Fail(verdict);
    for (const std::string& blind : SelfTest(
             db_, answers[i], static_cast<GraphId>(queries[i].source_graph))) {
      Fail("self-test: a check accepted a corrupted input: " + blind);
    }
    self_tested_ = true;
  }
  if (!self_tested_) Fail("self-test found no warm-up answer of two ids");
  const size_t cached = serve_ != nullptr ? serve_->cache().size()
                                          : engine_->cache().size();
  if (cached == 0) Fail("cache is empty after warm-up");
  return correct_;
}

void Runner::Measure() {
  const int64_t target_nanos = static_cast<int64_t>(args_.seconds * 1e9);
  const uint64_t executions_before =
      serve_ != nullptr ? serve_->pipeline_executions() : 0;
  const uint64_t coalesced_before =
      serve_ != nullptr ? serve_->coalesced_hits() : 0;
  last_window_fill_ = serve_ != nullptr ? serve_->cache().window_fill()
                                        : engine_->cache().window_fill();
  size_t measured = 0;
  std::vector<std::vector<GraphId>> answers(1);
  std::vector<int64_t> latencies(1);
  std::vector<TraceRow> rows(1);
  while (active_nanos_ < target_nanos) {
    const std::vector<igq::WorkloadQuery> queries =
        NextQueries(w_.round_queries);
    if (w_.queries_per_mutation == 0) {
      active_nanos_ += RunQueries(queries, &answers, &latencies,
                                  args_.trace ? &rows : nullptr);
      for (size_t i = 0; i < queries.size(); ++i, ++measured) {
        RecordQuery(queries[i], answers[i], latencies[i],
                    args_.trace ? &rows[i] : nullptr, measured);
      }
      continue;
    }
    // Writes beside reads: every query is checked against the database as
    // it stood when the query ran, before the next mutation.
    for (size_t i = 0; i < queries.size(); ++i, ++measured) {
      const int64_t elapsed = ProcessOne(queries[i].graph, &answers[0],
                                         args_.trace ? &rows[0] : nullptr);
      active_nanos_ += elapsed;
      RecordQuery(queries[i], answers[0], elapsed,
                  args_.trace ? &rows[0] : nullptr, measured);
      if ((i + 1) % w_.queries_per_mutation == 0) {
        const int64_t mutation_elapsed = ApplyMutation();
        active_nanos_ += mutation_elapsed;
        mutation_nanos_.push_back(mutation_elapsed);
      }
    }
  }
  if (serve_ != nullptr) {
    pipeline_executions_ = serve_->pipeline_executions() - executions_before;
    coalesced_hits_ = serve_->coalesced_hits() - coalesced_before;
  }
}

void Runner::RecordQuery(const igq::WorkloadQuery& query,
                         const std::vector<GraphId>& answer, int64_t nanos,
                         const TraceRow* row, size_t measured) {
  query_nanos_.push_back(nanos);
  CheckAnswer(query, answer,
              measured % kOracleStride == 0 && oracle_checks_ < kOracleSamples);
  if (row == nullptr) return;
  TraceRow traced = *row;
  const Clock::time_point start = Clock::now();
  igq::GraphCanonicalCode(query.graph);
  traced.canonical_nanos = NanosSince(start);
  // Stage-sum bound: the stages timed inside Process, whether by the
  // engine's own QueryStats or by the method decorator, fit in the call.
  const igq::QueryStats& stats = traced.stats;
  const int64_t stage_nanos =
      (stats.filter_micros + stats.probe_micros + stats.verify_micros) * 1000;
  if (stage_nanos > traced.process_nanos ||
      stats.total_micros * 1000 > traced.process_nanos ||
      traced.method_nanos > traced.process_nanos) {
    Fail("stage times exceed the Process call at query " +
         std::to_string(measured));
  }
  rows_.push_back(traced);
}

void Runner::FinalChecks() {
  if (oracle_checks_ == 0) Fail("no query was checked by the oracle");
  if (w_.queries_per_mutation == 0) return;
  const std::string live =
      CheckLiveCount(db_.NumLive(), initial_live_, adds_, removes_);
  if (!live.empty()) Fail(live);
  if (db_.NumLive() != live_.size()) Fail("live set diverged from database");
  if (!wal_->Sync()) Fail("final WAL sync failed");
  const igq::durability::WalScan scan = igq::durability::ScanWal(
      timed_fs_ != nullptr
          ? static_cast<igq::durability::FileSystem&>(*timed_fs_)
          : igq::durability::RealFileSystem::Instance(),
      wal_dir_);
  const std::string log = CheckWalRecords(scan.records, applied_);
  if (!log.empty()) Fail(log);
}

std::vector<Metric> Runner::EndToEndMetrics() const {
  const double seconds = static_cast<double>(active_nanos_) * 1e-9;
  return {
      {"query_throughput_qps",
       static_cast<double>(query_nanos_.size()) / seconds, "queries/s"},
      {"query_p50_us", QuantileMicros(query_nanos_, 0.50), "us"},
      {"query_p98_us", QuantileMicros(query_nanos_, 0.98), "us"},
      {"setup_s", setup_seconds_, "s"},
      {"peak_rss_mb", PeakRssMib(), "MiB"},
  };
}

std::vector<Metric> Runner::LayerMetrics() const {
  const double queries = static_cast<double>(rows_.size());
  const double mutations = static_cast<double>(mutation_nanos_.size());
  auto per_query = [&](double total) { return total / queries; };
  auto per_mutation = [&](double total) {
    return mutations == 0 ? 0.0 : total / mutations;
  };
  double probe_us = 0, probe_iso = 0, pruned = 0, unattributed_us = 0,
         canonical_us = 0, exact_hits = 0;
  for (const TraceRow& row : rows_) {
    const igq::QueryStats& s = row.stats;
    probe_us += static_cast<double>(s.probe_micros);
    probe_iso += static_cast<double>(s.probe_iso_tests);
    unattributed_us += static_cast<double>(
        s.total_micros - s.filter_micros - s.probe_micros - s.verify_micros);
    canonical_us += static_cast<double>(row.canonical_nanos) * 1e-3;
    if (s.shortcut == igq::ShortcutKind::kExactHit) {
      ++exact_hits;
    } else {
      pruned += static_cast<double>(s.candidates_initial - s.candidates_final);
    }
  }
  const TimedMethod& m = *timed_;
  const double verify_calls = static_cast<double>(m.verify.calls.load());
  const double cache_bytes =
      static_cast<double>(serve_ != nullptr ? serve_->cache().MemoryBytes()
                                            : engine_->cache().MemoryBytes());
  const double cache_entries =
      static_cast<double>(serve_ != nullptr ? serve_->cache().size()
                                            : engine_->cache().size());
  const double mutation_us =
      static_cast<double>(std::accumulate(mutation_nanos_.begin(),
                                          mutation_nanos_.end(), int64_t{0})) *
      1e-3;
  const TimedFileSystem* fs = timed_fs_.get();
  const double syncs = fs != nullptr ? static_cast<double>(fs->sync.calls) : 0;
  return {
      {"methods.filter_us",
       per_query((m.prepare.nanos + m.filter.nanos) * 1e-3), "us/query"},
      {"methods.candidates", per_query(m.candidates), "count/query"},
      {"methods.build_s", setup_build_nanos_ * 1e-9, "s"},
      {"methods.index_mb", m.IndexMemoryBytes() / 1048576.0, "MiB"},
      {"methods.on_add_us", m.on_add.MeanMicros(), "us/call"},
      {"methods.on_remove_us", m.on_remove.MeanMicros(), "us/call"},
      {"isomorphism.tests", per_query(verify_calls), "count/query"},
      {"isomorphism.test_us", m.verify.MeanMicros(), "us/call"},
      {"isomorphism.true_ratio",
       verify_calls == 0 ? 0.0 : m.verified_true / verify_calls, "ratio"},
      {"features.canonical_us", per_query(canonical_us), "us/query"},
      {"igq.exact_hits", per_query(exact_hits), "count/query"},
      {"igq.probe_us", per_query(probe_us), "us/query"},
      {"igq.probe_iso_tests", per_query(probe_iso), "count/query"},
      {"igq.pruned_candidates", per_query(pruned), "count/query"},
      {"igq.flushes", per_query(static_cast<double>(flushes_)), "count/query"},
      {"igq.unattributed_us", per_query(unattributed_us), "us/query"},
      {"igq.cache_mb", cache_bytes / 1048576.0, "MiB"},
      {"igq.cache_entries", cache_entries, "count"},
      {"igq.mutation_patch_us",
       per_mutation(mutation_us - (hook_nanos_ + wal_nanos_) * 1e-3),
       "us/mutation"},
      {"igq.mutation_p50_us", QuantileMicros(mutation_nanos_, 0.50), "us"},
      {"igq.mutation_p99_us", QuantileMicros(mutation_nanos_, 0.99), "us"},
      {"igq.pipeline_executions",
       per_query(static_cast<double>(pipeline_executions_)), "count/query"},
      {"igq.coalesced_hits", per_query(static_cast<double>(coalesced_hits_)),
       "count/query"},
      {"durability.append_us",
       fs != nullptr ? fs->append.MeanMicros() : 0.0, "us/call"},
      {"durability.syncs", per_mutation(syncs), "count/mutation"},
      {"durability.sync_us", fs != nullptr ? fs->sync.MeanMicros() : 0.0,
       "us/call"},
      {"durability.bytes_per_mutation",
       per_mutation(fs != nullptr ? static_cast<double>(fs->bytes) : 0.0),
       "B"},
      {"trace.query_throughput_qps",
       queries / (static_cast<double>(active_nanos_) * 1e-9), "queries/s"},
  };
}

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  return json + "}}";
}

void Runner::WriteOutputs(const std::string& json) const {
  const std::string stem = std::string(w_.name) + "-seed" +
                           std::to_string(args_.seed) + "-trace" +
                           (args_.trace ? "1" : "0");
  std::error_code error;
  std::filesystem::create_directories(std::string(kOutDir) + "/results",
                                      error);
  std::ofstream(std::string(kOutDir) + "/results/" + stem + ".json")
      << json << "\n";
  if (!args_.trace) return;
  // One span row per measured query, kept in memory during the run.
  std::filesystem::create_directories(std::string(kOutDir) + "/traces", error);
  std::ofstream trace(std::string(kOutDir) + "/traces/" + stem + ".csv");
  trace << "query,process_us,method_us,canonical_us,filter_us,probe_us,"
           "verify_us,total_us,candidates_initial,candidates_final,"
           "iso_tests,probe_iso_tests,answer_size,shortcut\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const TraceRow& row = rows_[i];
    const igq::QueryStats& s = row.stats;
    trace << i << ',' << row.process_nanos * 1e-3 << ','
          << row.method_nanos * 1e-3 << ',' << row.canonical_nanos * 1e-3
          << ',' << s.filter_micros << ',' << s.probe_micros << ','
          << s.verify_micros << ',' << s.total_micros << ','
          << s.candidates_initial << ',' << s.candidates_final << ','
          << s.iso_tests << ',' << s.probe_iso_tests << ',' << s.answer_size
          << ',' << static_cast<int>(s.shortcut) << '\n';
  }
}

int Runner::Run() {
  if (!SetUp()) {
    std::fprintf(stderr, "e2ebench: set-up failed for %s\n", w_.name);
    return 1;
  }
  if (Warm()) Measure();
  FinalChecks();
  const uint64_t attempted = query_nanos_.size() + mutation_nanos_.size();
  const std::string json =
      FormatResult(correct_, attempted, failed_,
                   args_.trace ? LayerMetrics() : EndToEndMetrics());
  if (!wal_dir_.empty()) {
    wal_.reset();
    std::error_code error;
    std::filesystem::remove_all(wal_dir_, error);
  }
  WriteOutputs(json);
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <pdbs-skewed|pdbs-uniform|"
                 "aids-churn|aids-serve> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return e2ebench::Runner(args).Run();
}
