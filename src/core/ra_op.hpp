#pragma once

// Relational-algebra kernels: distributed binary join and copy/project.
//
// One call to `execute_join` is one pass of the pipeline in the paper's
// Fig. 1: dynamic join planning → outer-relation serialization →
// intra-bucket exchange (MPI_Alltoallv) → highly parallel local join
// (B-tree probes) → generated tuples *emitted into an ExchangeRouter*.
// Shipping is decoupled from emission: the engine flushes the router once
// per iteration (fused mode) or after each rule (legacy mode), and the
// flush stages arrivals into the target's fused dedup/aggregation area.
// Materialization itself (Relation::materialize) is driven by the engine
// at iteration end, after all rules have run.

#include <cassert>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/exchange_router.hpp"
#include "core/expr.hpp"
#include "core/join_planner.hpp"
#include "core/profile.hpp"
#include "core/relation.hpp"

namespace paralagg::core {

/// Head of a rule: how each output column is computed from the joined pair
/// (side A, side B) — or from the single source tuple for copy rules.
struct OutputSpec {
  Relation* target = nullptr;
  std::vector<Expr> cols;  // one per target column, in the target's stored order
};

/// out(head) ← A(...), B(...) joined on the first `jcc` columns of each
/// side (A.jcc must equal B.jcc, and both sides must share the bucket
/// decomposition, which they do by construction).
///
/// With `anti = true` the rule is an ANTIJOIN (stratified negation,
/// paper §II-B background): a head tuple is emitted for each A row with
/// *no* matching B row (among matches, `filter` — which may reference both
/// sides — selects what counts as a match).  Head columns may then only
/// reference side A.  Side A is always the shipped side, and B must not be
/// sub-bucketed (a replica seeing "no local match" could not conclude
/// global absence).
struct JoinRule {
  Relation* a = nullptr;
  Version a_version = Version::kDelta;
  Relation* b = nullptr;
  Version b_version = Version::kFull;
  OutputSpec out;
  std::optional<Expr> filter;  // keep the pair when it evaluates nonzero
  /// Antijoins only: a side-A-only predicate gating emission.  (For a
  /// normal join an A-only condition can live in `filter`; for an antijoin
  /// it must not — "no matching B" would otherwise spuriously fire for A
  /// rows the rule never meant to consider.)
  std::optional<Expr> pre_filter;
  /// Per-rule override; the engine's config may force a fixed order for
  /// baseline measurements.
  JoinOrderPolicy order = JoinOrderPolicy::kDynamic;
  bool anti = false;
};

/// out(head) ← src(...) — projection/selection/copy, rerouted to the
/// target's distribution.
struct CopyRule {
  Relation* src = nullptr;
  Version version = Version::kDelta;
  OutputSpec out;  // Exprs may reference side A only
  std::optional<Expr> filter;
};

using Rule = std::variant<JoinRule, CopyRule>;

struct RuleExecStats {
  bool a_was_outer = false;
  bool planned_dynamically = false;
  std::uint64_t outer_tuples_shipped = 0;  // intra-bucket serialization volume
  std::uint64_t probes = 0;                // outer tuples probed into the inner tree
  std::uint64_t probe_seeks = 0;           // B-tree seeks issued (< probes when
                                           // sorted batching dedups equal keys)
  std::uint64_t matches = 0;               // joined pairs surviving the filter
  std::uint64_t outputs = 0;               // tuples sent to the target
  std::uint64_t hot_broadcast_rows = 0;    // probe rows broadcast for hot inner keys
};

// -- the local-join stage, shared by every engine ------------------------------
//
// The BSP engine, both async loops and serving differ only in scheduling:
// when rows ship, what they fold into, when to stop.  The join itself —
// replicate a probe row to its partner's bucket ranks, probe the partner
// tree, filter, evaluate the head — is the code below, and every sink
// stages order-insensitively (pre-mappable aggregates, DESIGN.md §5.1).

/// Evaluate `out`'s head over the pair (a, b) into `scratch`; `b` is empty
/// for copy rules and antijoins.
inline void eval_head(const OutputSpec& out, std::span<const value_t> a,
                      std::span<const value_t> b, Tuple& scratch) {
  scratch.clear();
  scratch.reserve(out.cols.size());
  for (const auto& e : out.cols) scratch.push_back(e.eval(a, b));
}

/// The filter-plus-head step of a copy rule over one source row, counted
/// as one probe (plus one match when it passes).  Returns false when the
/// filter rejects `row`; otherwise the head row is left in `scratch`.
bool copy_row(const CopyRule& rule, std::span<const value_t> row, Tuple& scratch,
              RuleExecStats& stats);

/// The replication step of a join: the ranks that must see `row`, a row of
/// `probe_rel`, to join it against `partner` — every rank holding a
/// sub-bucket of its bucket, or every rank when its key is hot in
/// `partner` (whose rows for a hot key are spread across all ranks by
/// Relation::route_rank; each still lives on one rank, so every pair is
/// found exactly once, DESIGN.md §13).  Returns whether the key was hot.
bool probe_dests(const Relation& probe_rel, const Relation& partner,
                 std::span<const value_t> row, std::vector<int>& dests);

namespace detail {
/// Probe order of a flat batch by join-key prefix: a stable index sort, or
/// an empty vector when the batch is already in key order (delta scans,
/// SSP scans and single-source frames arrive that way).
std::vector<std::uint32_t> probe_order(std::span<const value_t> batch, std::size_t arity,
                                       std::size_t jcc);
}  // namespace detail

/// The sorted-batch local join (paper Fig. 1's local-join stage).  `batch`
/// holds flat rows of the probe side (`rule.a` when `probe_is_a`, else
/// `rule.b`); each is joined against `partner_tree`, the other side's
/// local partition, and every head row surviving the filter goes to
/// `sink(std::span<const value_t>)`.  Probes run in join-key order so the
/// monotone cursor walks the tree once, and a run of equal keys shares one
/// seek (the match range is replayed per probe; filters still run per
/// pair).  Antijoins (BSP only) probe from side a and seek lazily, so a
/// pre-filter can reject a whole group without touching the tree.
template <typename Sink>
void join_sorted_batch(std::span<const value_t> batch, bool probe_is_a,
                       const storage::TupleBTree& partner_tree, const JoinRule& rule,
                       RuleExecStats& stats, Sink&& sink) {
  const std::size_t arity = (probe_is_a ? rule.a : rule.b)->arity();
  const std::size_t jcc = rule.a->jcc();
  assert(arity > 0 && batch.size() % arity == 0);
  assert(probe_is_a || !rule.anti);
  const std::size_t nrows = batch.size() / arity;
  const auto order = detail::probe_order(batch, arity, jcc);
  const auto row_at = [&](std::size_t k) {
    return batch.subspan((order.empty() ? k : order[k]) * arity, arity);
  };
  Tuple head;
  const auto emit = [&](std::span<const value_t> a, std::span<const value_t> b) {
    eval_head(rule.out, a, b, head);
    sink(head.view());
  };
  const auto emit_pair = [&](std::span<const value_t> prow, std::span<const value_t> match) {
    const auto a = probe_is_a ? prow : match;
    const auto b = probe_is_a ? match : prow;
    if (rule.filter && rule.filter->eval(a, b) == 0) return;
    ++stats.matches;
    emit(a, b);
  };

  auto cursor = partner_tree.cursor();
  std::size_t g = 0;
  while (g < nrows) {
    const auto gkey = row_at(g).first(jcc);
    std::size_t ge = g + 1;
    while (ge < nrows && storage::compare_prefix(row_at(ge), gkey, jcc) == 0) ++ge;

    bool sought = false;
    storage::TupleBTree::Cursor::Position begin{};
    std::size_t nmatch = 0;
    const auto ensure_range = [&]() {
      if (sought) return;
      cursor.seek(gkey);
      ++stats.probe_seeks;
      begin = cursor.position();
      for (; cursor.valid() && cursor.matches(gkey); cursor.next()) ++nmatch;
      sought = true;
    };

    for (std::size_t k = g; k < ge; ++k) {
      const auto prow = row_at(k);
      ++stats.probes;
      if (rule.anti) {
        if (rule.pre_filter && rule.pre_filter->eval(prow, {}) == 0) continue;
        ensure_range();
        bool exists = false;
        cursor.restore(begin);
        for (std::size_t m = 0; m < nmatch; ++m, cursor.next()) {
          if (rule.filter && rule.filter->eval(prow, cursor.row()) == 0) continue;
          exists = true;
          break;
        }
        if (!exists) {
          ++stats.matches;
          emit(prow, {});
        }
        continue;
      }
      // The group's first probe seeks and walks the match range, recording
      // it; the rest replay it without comparisons.
      const bool first = !sought;
      if (first) {
        cursor.seek(gkey);
        ++stats.probe_seeks;
        begin = cursor.position();
        sought = true;
      } else {
        cursor.restore(begin);
      }
      std::size_t m = 0;
      for (; first ? cursor.valid() && cursor.matches(gkey) : m < nmatch; ++m, cursor.next()) {
        emit_pair(prow, cursor.row());
      }
      if (first) nmatch = m;
    }
    g = ge;
  }
}

/// Run one join pass, emitting generated tuples into `router` (they ship
/// at the next router flush).  Collective (the intra-bucket exchange).
/// `forced` overrides the rule's own order policy when set (engine
/// baseline mode); `exchange` selects the intra-bucket algorithm.
RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           ExchangeRouter& router,
                           std::optional<JoinOrderPolicy> forced = std::nullopt,
                           ExchangeAlgorithm exchange = ExchangeAlgorithm::kDense);

/// Run one copy/project pass into `router`.  Local (copies only emit).
RuleExecStats execute_copy(RankProfile& profile, const CopyRule& rule,
                           ExchangeRouter& router);

/// Standalone variants: run the rule through a throwaway router and flush
/// it before returning — one exchange per rule, the legacy shape.  Used by
/// kernel tests and one-shot passes; the engine routes through a shared
/// router instead.
RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           std::optional<JoinOrderPolicy> forced = std::nullopt,
                           ExchangeAlgorithm exchange = ExchangeAlgorithm::kDense);
RuleExecStats execute_copy(vmpi::Comm& comm, RankProfile& profile, const CopyRule& rule,
                           ExchangeAlgorithm exchange = ExchangeAlgorithm::kDense);

/// Validate rule shape (arities, column references, join compatibility).
/// Throws std::invalid_argument with a descriptive message.
void validate_rule(const Rule& rule);

}  // namespace paralagg::core
