#include "igq/engine.h"

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/engine_common.h"
#include "igq/pruning.h"
#include "isomorphism/match_core.h"

namespace igq {
namespace {

constexpr CacheSection kCacheSection{snapshot::kSectionCache, "cache"};

}  // namespace

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(ValidatedIgqOptions(options)),
      cache_(std::make_unique<QueryCache>(options_, db.graphs.size())) {
  if (options_.verify_threads > 1) {
    pool_ = std::make_unique<VerifyPool>(options_.verify_threads);
  }
}

QueryEngine::~QueryEngine() = default;

std::vector<GraphId> QueryEngine::RunVerification(
    const std::vector<GraphId>& candidates, const PreparedQuery& prepared,
    serving::QueryControl& control) const {
  auto verify = [this, &prepared](GraphId id) {
    return method_->Verify(prepared, id);
  };
  serving::QueryControl* const stop_control =
      control.limited() ? &control : nullptr;
  return pool_ != nullptr ? pool_->Run(candidates, verify, stop_control)
                          : VerifyInline(candidates, verify, stop_control);
}

std::vector<GraphId> QueryEngine::Process(const Graph& query,
                                          QueryStats* stats) {
  serving::QueryControl unlimited;
  unlimited.Arm(serving::QueryBudget{}, nullptr);
  QueryResult result;
  RunPipeline(query, unlimited, stats != nullptr, &result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult QueryEngine::ProcessWithBudget(const Graph& query,
                                           const serving::QueryRequest& request,
                                           bool collect_stats) {
  serving::QueryControl control;
  ArmControl(request, options_.serving, &control);
  QueryResult result;
  RunPipeline(query, control, collect_stats, &result);
  outcomes_.Record(result.outcome);
  return result;
}

void QueryEngine::RunPipeline(const Graph& query,
                              serving::QueryControl& control,
                              bool collect_stats, QueryResult* result) {
  // collect_stats == false asks for NO stats collection (BatchOptions doc):
  // every stat write below is guarded and every ScopedTimer gets a null
  // sink, which skips its clock reads entirely.
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
  // cache-composed partial answer. It has committed nothing to the cache.
  auto stop = [&](bool partial_eligible, std::vector<GraphId> partial_answer) {
    const bool partial =
        partial_eligible && options_.serving.degrade_to_partial;
    result->outcome = serving::MakeStoppedOutcome(control, partial);
    result->answer =
        partial ? std::move(partial_answer) : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result->answer.size();
  };

  // A limited control is installed where searches run — this thread's
  // match core (probe and inline verify), the prepared query, the verify
  // pool — so the amortized checkpoint can stop them mid-search. Unlimited
  // queries install nothing and never reach the checkpoint body.
  serving::QueryControl* const search_control =
      control.limited() ? &control : nullptr;
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), search_control);

  std::unique_ptr<PreparedQuery> prepared = method_->Prepare(query);
  prepared->set_control(search_control);

  // Stage 1 (Fig. 6): host-method filtering.
  control.set_stage(serving::QueryStage::kFilter);
  std::vector<GraphId> candidates;
  {
    ScopedTimer filter_timer(filter_sink);
    candidates = method_->Filter(*prepared);
  }
  // Memory cap: the post-filter candidate set is the query's dominant
  // allocation driver, so the cap is enforced here, before pruning and
  // verification fan out over it.
  if (control.CheckNow() || control.ChargeCandidates(candidates.size())) {
    return stop(false, {});
  }
  if (stats != nullptr) stats->candidates_initial = candidates.size();

  if (!options_.enabled) {
    // Cache disabled: the plain host method M. A stop degrades to the
    // verified-so-far subset (still a true subset of the answer).
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

  // Stage 2 (Fig. 6): the cache lookup. The canonical-key exact-hit fast
  // path goes first: one hash probe of the key map. Only on a key miss does
  // the feature extraction + index probe run — an exact hit therefore
  // performs zero isomorphism tests. The filter still ran either way: its
  // candidate count feeds the §5.1 exact-hit credit below, which keeps
  // eviction trajectories (and the fig09/fig15 cells) identical to the
  // pre-key isomorphism path.
  control.set_stage(serving::QueryStage::kProbe);
  const size_t query_nodes = query.NumVertices();
  CacheProbe probe;
  std::string canonical;
  size_t exact_position = SIZE_MAX;
  {
    ScopedTimer probe_timer(probe_sink);
    canonical = GraphCanonicalCode(query);
    exact_position = cache_->FindExactByKey(canonical);
    if (exact_position == SIZE_MAX) {
      const PathFeatureCounts features = cache_->ExtractFeatures(query);
      probe = cache_->Probe(query, features);
    }
  }
  // A stop during the probe makes its results garbage (an interrupted
  // containment search aliases to a hit/miss) — abort without facts.
  if (control.CheckNow()) return stop(false, {});
  if (stats != nullptr) {
    stats->probe_iso_tests = probe.probe_iso_tests;
    stats->isub_hits = probe.supergraph_positions.size();
    stats->isuper_hits = probe.subgraph_positions.size();
  }

  // Cache commits — the query-counter tick, the §5.1 credits in the order
  // entries were consulted, then the insertion — wait for the query to
  // complete, so a stopped query leaves the cache bit-identical to one that
  // never saw it.

  // §4.3 case 1: identical (isomorphic) previous query — return its answer
  // outright. The canonical key found it above in one hash lookup; the probe
  // fallback covers only the key map and probe disagreeing, which the
  // canonicalization test suite rules out (the key map holds exactly the
  // flushed entries the probe scans).
  if (exact_position == SIZE_MAX) exact_position = probe.exact_position;
  if (exact_position != SIZE_MAX) {
    cache_->RecordQueryProcessed();
    cache_->CreditExactHit(exact_position, candidates.size(),
                           SumIsomorphismCosts(*db_, method_->Direction(),
                                               query_nodes, candidates));
    if (stats != nullptr) {
      stats->shortcut = ShortcutKind::kExactHit;
      stats->candidates_final = 0;
    }
    return complete(cache_->entries()[exact_position].answer.ToVector());
  }

  // The §4.4 role inversion. For subgraph queries, cached *supergraphs* of g
  // yield guaranteed answers (formulas (3)/(4)) and cached *subgraphs*
  // intersect the candidate set (formula (5)). For supergraph queries the
  // roles swap: cached subgraphs G ⊆ g guarantee (Gi ⊆ G ⊆ g), cached
  // supergraphs g ⊆ G intersect (Gi ⊆ g implies Gi ⊆ G).
  const bool subgraph_query =
      method_->Direction() == QueryDirection::kSubgraph;
  const std::vector<size_t>& guarantee_positions =
      subgraph_query ? probe.supergraph_positions : probe.subgraph_positions;
  const std::vector<size_t>& intersect_positions =
      subgraph_query ? probe.subgraph_positions : probe.supergraph_positions;

  // §5.1 credits, buffered during prune for the commit. Costs are computed
  // inside the callback (the removed span is only scratch-valid there).
  struct PendingCredit {
    size_t position;
    uint64_t removed;
    LogValue cost;
  };
  std::vector<PendingCredit> pending_credits;

  // The prune scratch (and the outcome inside it) is this thread's; it
  // stays valid through verification and answer assembly below.
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_positions.size());
    for (size_t position : guarantee_positions) {
      guarantee.push_back(&cache_->entries()[position]);
    }
    intersect.reserve(intersect_positions.size());
    for (size_t position : intersect_positions) {
      intersect.push_back(&cache_->entries()[position]);
    }
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          const size_t position = side == PruneSide::kGuarantee
                                      ? guarantee_positions[index]
                                      : intersect_positions[index];
          pending_credits.push_back(
              {position, removed.size(),
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

  // Stages 6-8 (Fig. 6): commit, then store the executed query. A full
  // window flushes inside Insert. The canonical key was already computed
  // for the fast-path lookup.
  cache_->RecordQueryProcessed();
  for (const PendingCredit& credit : pending_credits) {
    cache_->CreditHit(credit.position);
    cache_->CreditPrune(credit.position, credit.removed, credit.cost);
  }
  cache_->Insert(query, answer, std::move(canonical));
  complete(std::move(answer));
}

bool QueryEngine::SaveSnapshot(std::ostream& out, std::string* error) const {
  return SaveEngineSnapshot(out, *cache_, kCacheSection, *db_, *method_,
                            error);
}

bool QueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                               SnapshotLoadInfo* info) {
  return LoadEngineSnapshot(in, kCacheSection, options_, *db_, method_,
                            &cache_, error, info);
}

MutationResult QueryEngine::ApplyMutation(GraphDatabase& db,
                                          const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  return ApplyEngineMutation(db, mutation, method_, cache_.get(), wal_);
}

std::vector<BatchResult> QueryEngine::ProcessBatch(
    std::span<const Graph> queries, const BatchOptions& batch) {
  std::vector<BatchResult> results;
  results.reserve(queries.size());
  for (const Graph& query : queries) {
    results.push_back(RunBatchQuery(*this, query, batch));
  }
  return results;
}

}  // namespace igq
