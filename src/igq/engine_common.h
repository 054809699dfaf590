// What QueryEngine and ConcurrentQueryEngine share outside their query
// pipelines: arming a query's control from a request, the warm-start
// snapshot writer and reader, and the mutation path. The engines differ
// there only in their cache type (QueryCache / ShardedQueryCache) and the
// snapshot section that carries it, so each routine is one template,
// instantiated for both caches in engine_common.cc.
#ifndef IGQ_IGQ_ENGINE_COMMON_H_
#define IGQ_IGQ_ENGINE_COMMON_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>

#include "igq/engine.h"
#include "igq/mutation.h"
#include "igq/options.h"
#include "methods/method.h"
#include "serving/budget.h"
#include "snapshot/snapshot.h"

namespace igq {

/// Arms `control` for `request`. Budget fields left at zero fall back to
/// the engine's ServingOptions defaults.
void ArmControl(const serving::QueryRequest& request,
                const IgqOptions::ServingOptions& serving,
                serving::QueryControl* control);

/// Runs one query of a batch on `engine`: through ProcessWithBudget when
/// the batch carries a budget or a cancel flag, else through Process.
template <typename Engine>
BatchResult RunBatchQuery(Engine& engine, const Graph& query,
                          const BatchOptions& batch) {
  BatchResult result;
  if (batch.budget.Unlimited() && batch.cancel == nullptr) {
    result.answer =
        engine.Process(query, batch.collect_stats ? &result.stats : nullptr);
    return result;
  }
  QueryResult budgeted = engine.ProcessWithBudget(
      query, serving::QueryRequest{batch.budget, batch.cancel},
      batch.collect_stats);
  result.answer = std::move(budgeted.answer);
  result.stats = budgeted.stats;
  result.outcome = budgeted.outcome;
  return result;
}

/// The snapshot section an engine's cache state travels in, and the name
/// its error messages give that section. Sequential and sharded cache
/// sections are not interchangeable (the geometry differs): a reader skips
/// the other engine's section as unknown, then rejects the file for
/// lacking its own.
struct CacheSection {
  snapshot::SectionId id;
  const char* name;
};

/// Writes a warm-start snapshot (docs/FORMATS.md): `cache` in `section`,
/// the method index when the method supports persistence (Method::
/// SaveIndex), and the mutation state once the dataset has ever mutated.
/// Returns false on stream failure, filling `error` if non-null.
template <typename Cache>
bool SaveEngineSnapshot(std::ostream& out, const Cache& cache,
                        CacheSection section, const GraphDatabase& db,
                        const Method& method, std::string* error);

/// Restores a snapshot written by SaveEngineSnapshot with the same
/// `section`. Every section is decoded and checksum-verified, the mutation
/// state validated against `db`, and the cache loaded into a fresh object
/// before anything is committed: `*cache` is replaced only when the whole
/// load succeeds, so a rejected snapshot leaves the cache and the method as
/// they were, with `error` and `info->error_kind` saying why.
template <typename Cache>
bool LoadEngineSnapshot(std::istream& in, CacheSection section,
                        const IgqOptions& options, const GraphDatabase& db,
                        Method* method, std::unique_ptr<Cache>* cache,
                        std::string* error, SnapshotLoadInfo* info);

/// Applies one dataset mutation end to end: the no-op check, the WAL append
/// (log-before-apply, fail-closed), the database, the method (incremental
/// hooks, full Build fallback), and `cache`, whose answers are patched in
/// place. `db` must be the database the engine serves; the caller provides
/// exclusion against its queries.
template <typename Cache>
MutationResult ApplyEngineMutation(GraphDatabase& db,
                                   const GraphMutation& mutation,
                                   Method* method, Cache* cache,
                                   durability::WalWriter* wal);

}  // namespace igq

#endif  // IGQ_IGQ_ENGINE_COMMON_H_
