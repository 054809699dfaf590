#include "e2ebench/oracle.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

namespace e2ebench {
namespace {

using igq::Graph;
using igq::GraphId;
using igq::VertexId;

// Backtracking over the pattern's vertices in BFS order: each vertex after
// the first of its component is tried only on the target neighbors of an
// already-mapped pattern neighbor.
class Embedding {
 public:
  Embedding(const Graph& pattern, const Graph& target)
      : pattern_(pattern),
        target_(target),
        rank_(pattern.NumVertices(), kUnranked),
        mapping_(pattern.NumVertices(), 0),
        used_(target.NumVertices(), 0) {
    const size_t n = pattern.NumVertices();
    std::vector<VertexId> by_degree(n);
    for (size_t v = 0; v < n; ++v) by_degree[v] = static_cast<VertexId>(v);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](VertexId a, VertexId b) {
                       return pattern.Degree(a) > pattern.Degree(b);
                     });
    for (VertexId root : by_degree) {
      if (rank_[root] != kUnranked) continue;
      Visit(root, kNoParent);
      for (size_t head = order_.size() - 1; head < order_.size(); ++head) {
        for (VertexId w : pattern.Neighbors(order_[head])) {
          if (rank_[w] == kUnranked) Visit(w, order_[head]);
        }
      }
    }
  }

  bool Found() { return Extend(0); }

 private:
  static constexpr size_t kUnranked = SIZE_MAX;
  static constexpr VertexId kNoParent = static_cast<VertexId>(-1);

  void Visit(VertexId v, VertexId parent) {
    rank_[v] = order_.size();
    order_.push_back(v);
    parent_.push_back(parent);
  }

  bool Extend(size_t depth) {
    if (depth == order_.size()) return true;
    const VertexId u = order_[depth];
    if (parent_[depth] == kNoParent) {
      for (size_t x = 0; x < target_.NumVertices(); ++x) {
        if (TryMap(depth, u, static_cast<VertexId>(x))) return true;
      }
      return false;
    }
    for (VertexId x : target_.Neighbors(mapping_[parent_[depth]])) {
      if (TryMap(depth, u, x)) return true;
    }
    return false;
  }

  bool TryMap(size_t depth, VertexId u, VertexId x) {
    if (used_[x] || target_.label(x) != pattern_.label(u) ||
        target_.Degree(x) < pattern_.Degree(u)) {
      return false;
    }
    for (VertexId w : pattern_.Neighbors(u)) {
      if (rank_[w] < depth && !target_.HasEdge(mapping_[w], x)) return false;
    }
    mapping_[u] = x;
    used_[x] = 1;
    if (Extend(depth + 1)) return true;
    used_[x] = 0;
    return false;
  }

  const Graph& pattern_;
  const Graph& target_;
  std::vector<VertexId> order_;
  std::vector<VertexId> parent_;
  std::vector<size_t> rank_;
  std::vector<VertexId> mapping_;
  std::vector<char> used_;
};

bool LabelsFit(const Graph& pattern, const Graph& target) {
  const size_t bound = pattern.LabelUpperBound();
  std::vector<int64_t> need(bound, 0);
  for (size_t v = 0; v < pattern.NumVertices(); ++v) ++need[pattern.label(v)];
  for (size_t v = 0; v < target.NumVertices(); ++v) {
    if (target.label(v) < bound) --need[target.label(v)];
  }
  return std::all_of(need.begin(), need.end(),
                     [](int64_t left) { return left <= 0; });
}

std::string Describe(const char* what, GraphId id) {
  return std::string(what) + " " + std::to_string(id);
}

}  // namespace

bool BruteForceContains(const Graph& pattern, const Graph& target) {
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges() || !LabelsFit(pattern, target)) {
    return false;
  }
  return Embedding(pattern, target).Found();
}

std::vector<GraphId> BruteForceAnswer(const igq::GraphDatabase& db,
                                      const Graph& query) {
  std::vector<GraphId> answer;
  for (GraphId id = 0; id < db.graphs.size(); ++id) {
    if (db.IsLive(id) && BruteForceContains(query, db.graphs[id])) {
      answer.push_back(id);
    }
  }
  return answer;
}

std::string CheckAnswerShape(const std::vector<GraphId>& answer,
                             const igq::GraphDatabase& db,
                             GraphId source_graph) {
  for (size_t i = 1; i < answer.size(); ++i) {
    if (answer[i - 1] >= answer[i]) {
      return Describe("not sorted and unique at id", answer[i]);
    }
  }
  for (GraphId id : answer) {
    if (!db.IsLive(id)) return Describe("answer holds dead id", id);
  }
  if (db.IsLive(source_graph) &&
      !std::binary_search(answer.begin(), answer.end(), source_graph)) {
    return Describe("answer misses its source graph", source_graph);
  }
  return "";
}

std::string CheckAgainstOracle(const std::vector<GraphId>& answer,
                               const std::vector<GraphId>& expected) {
  if (answer == expected) return "";
  std::vector<GraphId> missing, extra;
  std::set_difference(expected.begin(), expected.end(), answer.begin(),
                      answer.end(), std::back_inserter(missing));
  std::set_difference(answer.begin(), answer.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  return "answer differs from the oracle: " + std::to_string(missing.size()) +
         " missing, " + std::to_string(extra.size()) + " extra (sizes " +
         std::to_string(answer.size()) + " vs " +
         std::to_string(expected.size()) + ")";
}

std::string CheckLiveCount(size_t num_live, size_t initial, size_t adds,
                           size_t removes) {
  if (num_live + removes == initial + adds) return "";
  return "live count " + std::to_string(num_live) + " != " +
         std::to_string(initial) + " + " + std::to_string(adds) + " - " +
         std::to_string(removes);
}

std::string CheckWalRecords(const std::vector<igq::durability::WalRecord>& log,
                            const std::vector<AppliedMutation>& applied) {
  if (log.size() != applied.size()) {
    return "log holds " + std::to_string(log.size()) + " records, " +
           std::to_string(applied.size()) + " mutations were applied";
  }
  for (size_t i = 0; i < log.size(); ++i) {
    const igq::durability::WalRecord& record = log[i];
    const AppliedMutation& expected = applied[i];
    const bool same =
        record.sequence == i + 1 && record.sequence == expected.wal_sequence &&
        record.epoch == expected.epoch &&
        record.mutation.kind == expected.kind &&
        (expected.kind == igq::MutationKind::kAddGraph
             ? record.mutation.graph == *expected.added
             : record.mutation.id == expected.id);
    if (!same) return Describe("log record differs at sequence", i + 1);
  }
  return "";
}

std::vector<std::string> SelfTest(const igq::GraphDatabase& db,
                                  const std::vector<GraphId>& answer,
                                  GraphId source_graph) {
  std::vector<std::string> blind;
  auto expect_reject = [&](const std::string& verdict, const char* name) {
    if (verdict.empty()) blind.push_back(name);
  };
  if (answer.size() < 2 || !CheckAnswerShape(answer, db, source_graph).empty()) {
    return {"self-test needs a correct answer of at least two ids"};
  }

  std::vector<GraphId> unsorted = answer;
  std::swap(unsorted.front(), unsorted.back());
  expect_reject(CheckAnswerShape(unsorted, db, source_graph), "shape:sorted");

  std::vector<GraphId> duplicated = answer;
  duplicated.insert(duplicated.begin() + 1, duplicated.front());
  expect_reject(CheckAnswerShape(duplicated, db, source_graph), "shape:unique");

  std::vector<GraphId> with_dead = answer;
  with_dead.push_back(static_cast<GraphId>(db.graphs.size()));
  expect_reject(CheckAnswerShape(with_dead, db, source_graph), "shape:live");

  std::vector<GraphId> without_source = answer;
  std::erase(without_source, source_graph);
  expect_reject(CheckAnswerShape(without_source, db, source_graph),
                "shape:source");

  std::vector<GraphId> short_one(answer.begin(), answer.end() - 1);
  expect_reject(CheckAgainstOracle(short_one, answer), "oracle");

  expect_reject(CheckLiveCount(db.NumLive(), db.NumLive(), 1, 0), "live-count");

  // A two-record log, then the same log reordered and truncated.
  igq::durability::WalRecord add_record;
  add_record.sequence = 1;
  add_record.epoch = 1;
  add_record.mutation = igq::GraphMutation::Add(db.graphs[source_graph]);
  igq::durability::WalRecord remove_record;
  remove_record.sequence = 2;
  remove_record.epoch = 2;
  remove_record.mutation = igq::GraphMutation::Remove(source_graph);
  const std::vector<AppliedMutation> applied = {
      {igq::MutationKind::kAddGraph, &db.graphs[source_graph], 0, 1, 1},
      {igq::MutationKind::kRemoveGraph, nullptr, source_graph, 2, 2}};
  if (!CheckWalRecords({add_record, remove_record}, applied).empty()) {
    blind.push_back("wal:accepts-correct-log");
  }
  expect_reject(CheckWalRecords({remove_record, add_record}, applied),
                "wal:order");
  expect_reject(CheckWalRecords({add_record}, applied), "wal:count");
  return blind;
}

}  // namespace e2ebench
