#include "igq/concurrent_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/engine_common.h"
#include "igq/pruning.h"
#include "isomorphism/match_core.h"

#if defined(__SANITIZE_THREAD__)
#define IGQ_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IGQ_TSAN_ACTIVE 1
#endif
#endif

namespace igq {
namespace {

constexpr CacheSection kShardedCacheSection{snapshot::kSectionShardedCache,
                                            "sharded-cache"};

// Deadline-bounded shared acquisition of the writer gate. libstdc++ lowers
// try_lock_until with a steady_clock deadline to pthread_rwlock_clockrdlock,
// which ThreadSanitizer (through at least GCC 12's libtsan) does not
// intercept — a successful acquisition is then invisible to TSan and every
// read behind the gate is reported as a false race against ApplyMutation's
// exclusive hold. Under TSan only, poll the intercepted try-lock path
// instead; production builds keep the blocking timed wait.
bool LockSharedUntil(std::shared_lock<std::shared_timed_mutex>& gate,
                     std::chrono::steady_clock::time_point deadline) {
#ifdef IGQ_TSAN_ACTIVE
  while (!gate.try_lock()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
#else
  return gate.try_lock_until(deadline);
#endif
}

}  // namespace

ConcurrentQueryEngine::ConcurrentQueryEngine(const GraphDatabase& db,
                                             Method* method,
                                             const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(ValidatedIgqOptions(options)),
      cache_(std::make_unique<ShardedQueryCache>(options_, db.graphs.size())),
      admission_(options_.serving.admission_watermark,
                 options_.serving.admission_max_waiters) {
  if (options_.verify_threads > 1) {
    pool_ = std::make_unique<VerifyPool>(options_.verify_threads);
  }
}

ConcurrentQueryEngine::~ConcurrentQueryEngine() = default;

std::vector<GraphId> ConcurrentQueryEngine::RunVerification(
    const std::vector<GraphId>& candidates, const PreparedQuery& prepared,
    serving::QueryControl& control) {
  auto verify = [this, &prepared](GraphId id) {
    return method_->Verify(prepared, id);
  };
  // Borrow the shared pool only when it is free AND the candidate set is
  // big enough for the pool to split (its own inline threshold); a busy
  // pool means another stream is verifying — running inline then is the
  // point of stream-level parallelism, never a stall.
  serving::QueryControl* const stop_control =
      control.limited() ? &control : nullptr;
  if (pool_ != nullptr && candidates.size() >= 2 * pool_->threads()) {
    std::unique_lock<std::mutex> borrow(pool_mutex_, std::try_to_lock);
    if (borrow.owns_lock()) return pool_->Run(candidates, verify, stop_control);
  }
  return VerifyInline(candidates, verify, stop_control);
}

std::vector<GraphId> ConcurrentQueryEngine::Process(const Graph& query,
                                                    QueryStats* stats) {
  serving::QueryControl unlimited;
  unlimited.Arm(serving::QueryBudget{}, nullptr);
  QueryResult result;
  RunPipeline(query, unlimited, /*admit=*/false, stats != nullptr, &result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult ConcurrentQueryEngine::ProcessWithBudget(
    const Graph& query, const serving::QueryRequest& request,
    bool collect_stats) {
  serving::QueryControl control;
  ArmControl(request, options_.serving, &control);
  QueryResult result;
  RunPipeline(query, control, /*admit=*/true, collect_stats, &result);
  outcomes_.Record(result.outcome);
  return result;
}

void ConcurrentQueryEngine::RunPipeline(const Graph& query,
                                        serving::QueryControl& control,
                                        bool admit, bool collect_stats,
                                        QueryResult* result) {
  // Same null-stats contract as QueryEngine::RunPipeline: without
  // collect_stats there are no clock reads and no counter writes.
  QueryStats* const stats = collect_stats ? &result->stats : nullptr;
  int64_t* const filter_sink =
      stats != nullptr ? &stats->filter_micros : nullptr;
  int64_t* const probe_sink = stats != nullptr ? &stats->probe_micros : nullptr;
  int64_t* const verify_sink =
      stats != nullptr ? &stats->verify_micros : nullptr;
  ScopedTimer total_timer(stats != nullptr ? &stats->total_micros : nullptr);

  auto complete = [&](std::vector<GraphId> answer) {
    if (stats != nullptr) stats->answer_size = answer.size();
    result->answer = std::move(answer);
    result->outcome.kind = serving::QueryOutcomeKind::kCompleted;
    result->outcome.elapsed_micros = control.ElapsedMicros();
  };
  // A stopped query reports its typed outcome and, when eligible, a
  // cache-composed partial answer. All cache commits are deferred, so it
  // leaves the shared cache bit-identical to one that never saw it.
  auto stop = [&](bool partial_eligible, std::vector<GraphId> partial_answer) {
    const bool partial =
        partial_eligible && options_.serving.degrade_to_partial;
    result->outcome = serving::MakeStoppedOutcome(control, partial);
    result->answer =
        partial ? std::move(partial_answer) : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result->answer.size();
  };

  // Stage: writer-gate wait. The gate is held shared for the query's whole
  // lifetime, so the database, method index, and cache never shift
  // underneath it; queries never block each other here — only an in-flight
  // ApplyMutation does. With a deadline the wait is timed: a query that
  // cannot get past a mutation in time reports kDeadlineExpired at
  // kGateWait instead of blocking unboundedly. Without one the wait is
  // plain, and cancellation is noticed right after acquisition (mutations
  // are short). False when the query stopped.
  std::shared_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_,
                                                          std::defer_lock);
  auto acquire_gate = [&] {
    control.set_stage(serving::QueryStage::kGateWait);
    bool acquired = true;
    if (control.has_deadline()) {
      acquired = LockSharedUntil(mutation_gate, control.deadline());
    } else {
      mutation_gate.lock();
    }
    // CheckNow latches kDeadline (or kCancelled) when the timed wait gave up.
    return !control.CheckNow() && acquired;
  };
  if (!acquire_gate()) return stop(false, {});

  // A limited control is installed where searches run — this stream's
  // match core (probe and its share of verify), the prepared query, the
  // verify pool — so the amortized checkpoint can stop them mid-search.
  // Unlimited queries install nothing and never reach the checkpoint body.
  serving::QueryControl* const search_control =
      control.limited() ? &control : nullptr;
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), search_control);

  // Admission control runs with the gate DROPPED — a query parked in the
  // admission queue must not hold the shared gate, or it would block
  // mutations for up to its whole deadline — then re-acquires the gate.
  // Admission cost: query size in vertices + edges, a cheap proxy for the
  // expected filter/verify work. False when `result` already holds the
  // rejection outcome.
  serving::AdmissionTicket ticket;
  auto admitted = [&] {
    if (!admit || !admission_.enabled()) return true;
    mutation_gate.unlock();
    control.set_stage(serving::QueryStage::kAdmission);
    const uint64_t cost =
        static_cast<uint64_t>(query.NumVertices()) + query.NumEdges();
    switch (admission_.Admit(cost, control)) {
      case serving::AdmissionController::Result::kShed:
        result->outcome.kind = serving::QueryOutcomeKind::kShed;
        result->outcome.stage = serving::QueryStage::kAdmission;
        result->outcome.elapsed_micros = control.ElapsedMicros();
        return false;
      case serving::AdmissionController::Result::kDeadline:
        control.CheckNow();
        stop(false, {});
        return false;
      case serving::AdmissionController::Result::kAdmitted:
        break;
    }
    ticket = serving::AdmissionTicket(&admission_, cost);
    if (acquire_gate()) return true;
    stop(false, {});
    return false;
  };

  // Stage: host-method filtering. False when the query stopped (or its
  // candidate set broke the memory cap, the query's dominant allocation
  // driver).
  std::unique_ptr<PreparedQuery> prepared;
  std::vector<GraphId> candidates;
  auto filter = [&] {
    prepared = method_->Prepare(query);
    prepared->set_control(search_control);
    control.set_stage(serving::QueryStage::kFilter);
    {
      ScopedTimer filter_timer(filter_sink);
      candidates = method_->Filter(*prepared);
    }
    if (control.CheckNow() || control.ChargeCandidates(candidates.size())) {
      return false;
    }
    if (stats != nullptr) stats->candidates_initial = candidates.size();
    return true;
  };

  if (!options_.enabled) {
    // Cache disabled: the plain host method M. A stop during verify
    // degrades to the verified-so-far subset (still a true subset of the
    // answer).
    if (!admitted()) return;
    if (!filter()) return stop(false, {});
    control.set_stage(serving::QueryStage::kVerify);
    std::vector<GraphId> verified;
    {
      ScopedTimer verify_timer(verify_sink);
      verified = RunVerification(candidates, *prepared, control);
    }
    if (stats != nullptr) {
      stats->iso_tests = candidates.size();
      stats->candidates_final = candidates.size();
    }
    if (control.stopped()) return stop(true, std::move(verified));
    return complete(std::move(verified));
  }

  // Stage: exact-hit fast path, BEFORE the host method's filter: an
  // isomorphic cached query is found by one canonicalization plus one hash
  // lookup, so a hit pays neither Prepare/Filter nor a single isomorphism
  // test. A hit ticks the query counter, then credits the entry, inside
  // TryExactHit. The §5.1 credit diverges from the sequential engine here
  // by design — R/C accrue over the cached answer rather than a filtered
  // candidate set the fast path never computes (docs/CONCURRENCY.md, "what
  // may differ"). Exact hits bypass admission, so cache hits stay cheap
  // under overload.
  control.set_stage(serving::QueryStage::kFastPath);
  const size_t query_nodes = query.NumVertices();
  auto cost_of = [this, query_nodes](std::span<const GraphId> ids) {
    return SumIsomorphismCosts(*db_, method_->Direction(), query_nodes, ids);
  };
  std::string canonical;
  std::vector<GraphId> hit_answer;
  auto exact_hit = [&] {
    ScopedTimer probe_timer(probe_sink);
    if (!cache_->TryExactHit(canonical, cost_of, &hit_answer)) return false;
    if (stats != nullptr) stats->shortcut = ShortcutKind::kExactHit;
    return true;
  };
  {
    ScopedTimer probe_timer(probe_sink);
    canonical = GraphCanonicalCode(query);
  }
  if (exact_hit()) return complete(std::move(hit_answer));

  if (!admitted()) return;

  // Singleflight: concurrent streams missing on the same canonical key
  // coalesce onto one in-flight record. The first stream to register (the
  // leader) runs the pipeline; the rest park on the record, each only
  // until its own deadline, and share the published answer.
  control.set_stage(serving::QueryStage::kSingleflightWait);
  std::shared_ptr<InFlightQuery> inflight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto [it, inserted] = inflight_.try_emplace(canonical);
    if (inserted) it->second = std::make_shared<InFlightQuery>();
    leader = inserted;
    inflight = it->second;
  }
  if (!leader) {
    std::unique_lock<std::mutex> wait_lock(inflight->mutex);
    auto done = [&] { return inflight->done; };
    if (control.has_deadline()) {
      inflight->cv.wait_until(wait_lock, control.deadline(), done);
    } else {
      // No deadline: wake periodically to notice external cancellation.
      while (!inflight->cv.wait_for(wait_lock, std::chrono::milliseconds(50),
                                    done) &&
             !control.CheckNow()) {
      }
    }
    if (inflight->done && !inflight->failed) {
      std::vector<GraphId> shared_answer = inflight->answer;
      wait_lock.unlock();
      // Coalesced completion commits this query's counter tick.
      cache_->RecordQueryProcessed();
      coalesced_hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) stats->shortcut = ShortcutKind::kCoalescedHit;
      return complete(std::move(shared_answer));
    }
    wait_lock.unlock();
    // Parked past the budget, or the leader stopped without an answer. A
    // follower whose own budget is spent stops here; a live one runs the
    // pipeline itself, unregistered — correctness over coalescing.
    if (control.CheckNow()) return stop(false, {});
  }

  // Leader-side publish guard: on every exit — normal, stopped, or
  // unwinding — wake the parked followers with the answer, or mark the
  // record failed and stamp the typed outcome (partial answers are
  // leader-private: a follower coalescing one would mistake a subset for
  // the full answer), then unregister the key. Unregistration comes last
  // and AFTER Insert has registered the key in the cache's canonical map,
  // so a stream arriving later either coalesces or fast-path-hits.
  struct PublishGuard {
    ConcurrentQueryEngine* engine;
    const std::string* key;  // null: not a leader, guard is a no-op
    InFlightQuery* record;
    const serving::QueryControl* control;
    bool published = false;
    std::vector<GraphId> answer;

    void Publish(const std::vector<GraphId>& result) {
      if (key == nullptr) return;
      answer = result;
      published = true;
    }
    ~PublishGuard() {
      if (key == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(record->mutex);
        record->failed = !published;
        if (published) {
          record->answer = std::move(answer);
        } else {
          record->leader_outcome = serving::MakeStoppedOutcome(*control,
                                                               false);
        }
        record->done = true;
      }
      record->cv.notify_all();
      std::lock_guard<std::mutex> lock(engine->inflight_mutex_);
      engine->inflight_.erase(*key);
    }
  };
  PublishGuard publish{this, leader ? &canonical : nullptr, inflight.get(),
                       &control, false, {}};

  // A leader re-checks the fast path once registered: a previous leader for
  // this key may have inserted and unregistered between this stream's
  // fast-path miss and its registration, and running the pipeline again
  // would compute the same answer twice.
  if (leader && exact_hit()) {
    publish.Publish(hit_answer);
    return complete(std::move(hit_answer));
  }

  pipeline_executions_.fetch_add(1, std::memory_order_relaxed);
  if (!filter()) return stop(false, {});

  // Stage: probe + prune. §5.1 credits are buffered during prune, addressed
  // by session Hit, and committed after the query-counter tick; the probe
  // session's shared shard locks pin the Hits until then.
  control.set_stage(serving::QueryStage::kProbe);
  std::optional<ShardedQueryCache::ProbeSession> session;
  {
    ScopedTimer probe_timer(probe_sink);
    const PathFeatureCounts features = cache_->ExtractFeatures(query);
    session.emplace(cache_->Probe(query, features));
  }
  // A stop during the probe makes its results garbage (an interrupted
  // containment search aliases to a hit/miss) — abort without facts.
  if (control.CheckNow()) return stop(false, {});
  if (stats != nullptr) {
    stats->probe_iso_tests = session->probe_iso_tests();
    stats->isub_hits = session->supergraph_hits().size();
    stats->isuper_hits = session->subgraph_hits().size();
  }

  // §4.3 case 1: identical previous query — return its answer outright.
  // Normally unreachable since the canonical fast path already checked,
  // but a stale canonical ref (a flush raced the lookup) can miss there
  // and land here. Tick, then the one crediting site, as on the fast path.
  if (session->has_exact()) {
    cache_->RecordQueryProcessed();
    session->CreditExactHit(session->exact(), candidates.size(),
                            SumIsomorphismCosts(*db_, method_->Direction(),
                                                query_nodes, candidates));
    std::vector<GraphId> cached_answer =
        session->entry(session->exact()).answer.ToVector();
    if (stats != nullptr) {
      stats->shortcut = ShortcutKind::kExactHit;
      stats->candidates_final = 0;
    }
    publish.Publish(cached_answer);
    return complete(std::move(cached_answer));
  }

  // The §4.4 role inversion, as in the sequential engine: the guarantee
  // side yields answers without verification, the intersect side prunes.
  const bool subgraph_query =
      method_->Direction() == QueryDirection::kSubgraph;
  const std::vector<ShardedQueryCache::Hit>& guarantee_hits =
      subgraph_query ? session->supergraph_hits() : session->subgraph_hits();
  const std::vector<ShardedQueryCache::Hit>& intersect_hits =
      subgraph_query ? session->subgraph_hits() : session->supergraph_hits();
  struct PendingCredit {
    ShardedQueryCache::Hit hit;
    uint64_t removed;
    LogValue cost;
  };
  std::vector<PendingCredit> pending_credits;
  auto commit_credits = [&] {
    cache_->RecordQueryProcessed();
    for (const PendingCredit& credit : pending_credits) {
      session->CreditHit(credit.hit);
      session->CreditPrune(credit.hit, credit.removed, credit.cost);
    }
    session.reset();  // releases the shard locks
  };

  // This thread's prune scratch; the outcome inside stays valid through
  // verification and answer assembly (each stream thread has its own).
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_hits.size());
    for (const ShardedQueryCache::Hit& hit : guarantee_hits) {
      guarantee.push_back(&session->entry(hit));
    }
    intersect.reserve(intersect_hits.size());
    for (const ShardedQueryCache::Hit& hit : intersect_hits) {
      intersect.push_back(&session->entry(hit));
    }
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          const ShardedQueryCache::Hit& hit = side == PruneSide::kGuarantee
                                                  ? guarantee_hits[index]
                                                  : intersect_hits[index];
          // Costs are computed inside the callback (the removed span is
          // only scratch-valid here); the credit itself waits for commit.
          pending_credits.push_back(
              {hit, removed.size(),
               SumIsomorphismCosts(*db_, method_->Direction(), query_nodes,
                                   removed)});
        },
        prune_scratch, search_control);
  }
  const PruneOutcome& pruned = prune_scratch.outcome;
  if (stats != nullptr) {
    stats->candidates_final = pruned.remaining.size();
    if (pruned.empty_answer_shortcut) {
      stats->shortcut = ShortcutKind::kEmptyAnswerPruning;
    }
  }
  // A stop during prune: the entries consulted so far yielded true facts,
  // so the guaranteed set is a valid partial answer (§4.3 composition).
  if (control.stopped()) {
    std::vector<GraphId> partial;
    AssembleAnswer(pruned, {}, prune_scratch, &partial);
    return stop(true, std::move(partial));
  }

  // Session lifetime. An unlimited query cannot stop after prune, so it
  // commits now and releases the shard locks before verification, the long
  // stage — holding them would block other streams' inserts and flush
  // swaps. A limited query may still stop during verify, and must then
  // have committed nothing, so it keeps the session until it completes.
  if (!control.limited()) commit_credits();

  control.set_stage(serving::QueryStage::kVerify);
  std::vector<GraphId> verified;
  {
    ScopedTimer verify_timer(verify_sink);
    verified = RunVerification(pruned.remaining, *prepared, control);
  }
  if (stats != nullptr) stats->iso_tests = pruned.remaining.size();

  // Formula (4): Answer(g) = verified ∪ (pruned guaranteed answers), via
  // the shared assembly next to PruneCandidates.
  std::vector<GraphId> answer;
  AssembleAnswer(pruned, verified, prune_scratch, &answer);
  // Verified ids are the trusted subset (RunVerification contract), so
  // guaranteed ∪ verified is still a true partial answer. Never cached.
  if (control.stopped()) return stop(true, std::move(answer));
  if (session.has_value()) commit_credits();

  // Insert (which registers the canonical key in the cache) strictly before
  // the publish guard unregisters the in-flight record — see PublishGuard.
  // The session is gone by now: Insert takes exclusive shard locks, which
  // would self-deadlock against its shared ones.
  cache_->Insert(query, answer, canonical);
  publish.Publish(answer);
  complete(std::move(answer));
}

std::vector<BatchResult> ConcurrentQueryEngine::ProcessConcurrent(
    std::span<const Graph> queries, size_t streams,
    const BatchOptions& batch) {
  std::vector<BatchResult> results(queries.size());
  if (queries.empty()) return results;
  streams = std::clamp<size_t>(streams, 1, queries.size());

  // Dynamic claiming: streams pull the next unprocessed query, so a stream
  // stuck on an expensive query does not strand its share of the batch.
  std::atomic<size_t> cursor{0};
  auto stream_loop = [&] {
    for (;;) {
      const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= queries.size()) break;
      results[index] = RunBatchQuery(*this, queries[index], batch);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(streams - 1);
  for (size_t t = 1; t < streams; ++t) workers.emplace_back(stream_loop);
  stream_loop();  // the caller is stream 0
  for (std::thread& worker : workers) worker.join();
  return results;
}

bool ConcurrentQueryEngine::SaveSnapshot(std::ostream& out,
                                         std::string* error) const {
  return SaveEngineSnapshot(out, *cache_, kShardedCacheSection, *db_,
                            *method_, error);
}

bool ConcurrentQueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                                         SnapshotLoadInfo* info) {
  if (!LoadEngineSnapshot(in, kShardedCacheSection, options_, *db_, method_,
                          &cache_, error, info)) {
    return false;
  }
  // Snapshots carry compacted answers (no entry references a tombstoned
  // dataset graph), so the restored cache's dead set restarts from the
  // database's tombstones — future removals extend it from there.
  cache_->SeedDeadIds(db_->tombstones, db_->graphs.size());
  return true;
}

MutationResult ConcurrentQueryEngine::ApplyMutation(
    GraphDatabase& db, const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  // Writer side of the mutation gate: waits for in-flight queries to drain
  // and blocks new ones for the duration of the mutation, which is what
  // makes the db.graphs reallocation (and the method's index surgery)
  // safe — see the header and docs/CONCURRENCY.md. The WAL append sits
  // inside the exclusive section: the gate is what serializes WAL writes,
  // so record order on disk IS apply order.
  std::unique_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_);
  return ApplyEngineMutation(db, mutation, method_, cache_.get(), wal_);
}

}  // namespace igq
