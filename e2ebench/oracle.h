// Independent correctness checks for the end-to-end benchmark. Nothing here
// calls the library's matchers, filters or caches: the oracle is a plain
// backtracking subgraph matcher over the graph type alone, so a fault in
// the engine cannot hide behind the same fault in its own checker.
#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "durability/wal.h"
#include "graph/graph.h"
#include "igq/mutation.h"
#include "methods/method.h"

namespace e2ebench {

/// True iff `pattern` has a label-preserving, injective, edge-preserving
/// (non-induced) embedding into `target` — the containment relation every
/// subgraph method answers.
bool BruteForceContains(const igq::Graph& pattern, const igq::Graph& target);

/// Sorted ids of every live graph of `db` that contains `query`.
std::vector<igq::GraphId> BruteForceAnswer(const igq::GraphDatabase& db,
                                           const igq::Graph& query);

/// Properties every answer has whatever the cache held: sorted, unique,
/// live, and holding the graph the query was extracted from while that
/// graph is live. Returns an empty string when they hold, else the first
/// violation.
std::string CheckAnswerShape(const std::vector<igq::GraphId>& answer,
                             const igq::GraphDatabase& db,
                             igq::GraphId source_graph);

/// Compares an answer with the oracle's; empty string when identical.
std::string CheckAgainstOracle(const std::vector<igq::GraphId>& answer,
                               const std::vector<igq::GraphId>& expected);

/// One mutation the benchmark applied, as it expects to find it in the log.
struct AppliedMutation {
  igq::MutationKind kind = igq::MutationKind::kAddGraph;
  const igq::Graph* added = nullptr;  // kAddGraph: the graph that was copied
  igq::GraphId id = 0;                // kRemoveGraph: the removed id
  uint64_t wal_sequence = 0;
  uint64_t epoch = 0;
};

/// The database's live count must equal initial + adds - removes.
std::string CheckLiveCount(size_t num_live, size_t initial, size_t adds,
                           size_t removes);

/// A scan of the log must return exactly `applied`, in sequence order.
std::string CheckWalRecords(const std::vector<igq::durability::WalRecord>& log,
                            const std::vector<AppliedMutation>& applied);

/// Feeds each check above a corrupted input derived from a correct one and
/// returns the names of the checks that failed to reject it (empty when
/// every check can fail). `answer` must be the correct, oracle-confirmed
/// answer of a query extracted from live graph `source_graph` and hold at
/// least two ids.
std::vector<std::string> SelfTest(const igq::GraphDatabase& db,
                                  const std::vector<igq::GraphId>& answer,
                                  igq::GraphId source_graph);

}  // namespace e2ebench

#endif  // E2EBENCH_ORACLE_H_
