#include "core/ra_op.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/phase_scope.hpp"
#include "core/row_codec.hpp"

namespace paralagg::core {

bool copy_row(const CopyRule& rule, std::span<const value_t> row, Tuple& scratch,
              RuleExecStats& stats) {
  ++stats.probes;
  if (rule.filter && rule.filter->eval(row, {}) == 0) return false;
  ++stats.matches;
  eval_head(rule.out, row, {}, scratch);
  return true;
}

bool probe_dests(const Relation& probe_rel, const Relation& partner,
                 std::span<const value_t> row, std::vector<int>& dests) {
  if (!partner.hot_keys().empty() && partner.key_is_hot(row)) {
    dests.resize(static_cast<std::size_t>(partner.comm().size()));
    std::iota(dests.begin(), dests.end(), 0);
    return true;
  }
  partner.ranks_of_bucket(probe_rel.bucket_of(row), dests);
  return false;
}

namespace detail {

std::vector<std::uint32_t> probe_order(std::span<const value_t> batch, std::size_t arity,
                                       std::size_t jcc) {
  const std::size_t nrows = batch.size() / arity;
  const auto row_of = [&](std::size_t i) { return batch.subspan(i * arity, arity); };
  std::size_t i = 1;
  while (i < nrows && storage::compare_prefix(row_of(i - 1), row_of(i), jcc) <= 0) ++i;
  if (i >= nrows) return {};
  std::vector<std::uint32_t> order(nrows);
  std::iota(order.begin(), order.end(), 0);
  // Stable: equal keys keep arrival order, so a sorted batch and its
  // index sort probe (and emit) in the same order.  Comparisons here are
  // plain, not counted against the B-tree.
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return storage::compare_prefix(row_of(x), row_of(y), jcc) < 0;
  });
  return order;
}

}  // namespace detail

namespace {

/// Outer-relation serialization feeding the intra-bucket exchange: every
/// tuple of `tree` goes to each rank probe_dests names for it.  The walk
/// is in key order, so each destination's run is sorted for the codec.
std::uint64_t serialize_outer(const storage::TupleBTree& tree, const Relation& outer,
                              const Relation& inner, std::vector<vmpi::Bytes>& send,
                              std::uint64_t& hot_broadcast) {
  std::uint64_t shipped = 0;
  std::vector<int> dests;
  std::vector<std::vector<value_t>> outgoing(send.size());
  tree.for_each([&](std::span<const value_t> t) {
    if (probe_dests(outer, inner, t, dests)) hot_broadcast += dests.size();
    for (int d : dests) {
      auto& rows = outgoing[static_cast<std::size_t>(d)];
      rows.insert(rows.end(), t.begin(), t.end());
    }
    shipped += dests.size();
  });
  for (std::size_t d = 0; d < send.size(); ++d) {
    if (!outgoing[d].empty()) put_row_group(send[d], 0, outgoing[d], outer.arity());
  }
  return shipped;
}

}  // namespace

RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           ExchangeRouter& router, std::optional<JoinOrderPolicy> forced,
                           ExchangeAlgorithm exchange_algo) {
  RuleExecStats stats;
  const std::uint32_t route = router.add_target(rule.out.target);
  assert(rule.a->jcc() == rule.b->jcc() && "join sides must agree on join-column count");

  // ---- Phase: dynamic join planning (Algorithm 1) --------------------------
  PlanDecision plan{};
  if (rule.anti) {
    // Antijoins cannot swap sides: absence can only be decided where ALL
    // of B's candidates for a bucket live.
    assert(rule.b->sub_buckets() == 1 && "antijoin inner must not be sub-bucketed");
    assert(rule.b->hot_keys().empty() &&
           "antijoin inner must not carry a hot-key layout (absence is global)");
    plan = PlanDecision{.a_outer = true, .votes_for_a = 0, .voted = false};
  } else {
    PhaseScope scope(comm, profile, Phase::kPlan);
    const auto policy = forced.value_or(rule.order);
    plan = plan_join_order(comm, policy, rule.a->local_size(rule.a_version),
                           rule.b->local_size(rule.b_version));
    profile.add_work(Phase::kPlan, 1);
  }
  stats.a_was_outer = plan.a_outer;
  stats.planned_dynamically = plan.voted;

  const Relation& outer = plan.a_outer ? *rule.a : *rule.b;
  const Relation& inner = plan.a_outer ? *rule.b : *rule.a;
  const Version outer_version = plan.a_outer ? rule.a_version : rule.b_version;
  const Version inner_version = plan.a_outer ? rule.b_version : rule.a_version;

  // ---- Phase: outer serialization + intra-bucket exchange -------------------
  std::vector<vmpi::Bytes> received_outer;
  {
    PhaseScope scope(comm, profile, Phase::kIntraBucket);
    std::vector<vmpi::Bytes> send(static_cast<std::size_t>(comm.size()));
    stats.outer_tuples_shipped = serialize_outer(outer.tree(outer_version), outer, inner, send,
                                                 stats.hot_broadcast_rows);
    profile.add_work(Phase::kIntraBucket, stats.outer_tuples_shipped);
    received_outer = exchange_alltoallv(comm, std::move(send), exchange_algo);
  }

  // ---- Phase: local join (outputs emitted into the router) ------------------
  {
    PhaseScope scope(comm, profile, Phase::kLocalJoin);
    const std::vector<value_t> batch = decode_frames(received_outer, outer.arity());
    join_sorted_batch(batch, plan.a_outer, inner.tree(inner_version), rule, stats,
                      [&](std::span<const value_t> row) { router.emit(route, row); });
    stats.outputs = stats.matches;
    profile.add_work(Phase::kLocalJoin, stats.probes + stats.matches);
  }
  return stats;
}

RuleExecStats execute_copy(RankProfile& profile, const CopyRule& rule,
                           ExchangeRouter& router) {
  RuleExecStats stats;
  const std::uint32_t route = router.add_target(rule.out.target);

  PhaseScope scope(router.comm(), profile, Phase::kLocalJoin);
  Tuple head;
  rule.src->tree(rule.version).for_each([&](std::span<const value_t> t) {
    if (copy_row(rule, t, head, stats)) router.emit(route, head.view());
  });
  stats.outputs = stats.matches;
  // Same convention as execute_join: a kLocalJoin work unit is one row
  // visited plus one row produced, so copy and join workloads are
  // comparable in the balancer's eyes.
  profile.add_work(Phase::kLocalJoin, stats.probes + stats.matches);
  return stats;
}

RuleExecStats execute_join(vmpi::Comm& comm, RankProfile& profile, const JoinRule& rule,
                           std::optional<JoinOrderPolicy> forced,
                           ExchangeAlgorithm exchange_algo) {
  ExchangeRouter router(comm);
  const auto stats = execute_join(comm, profile, rule, router, forced, exchange_algo);
  router.flush(profile, exchange_algo);
  return stats;
}

RuleExecStats execute_copy(vmpi::Comm& comm, RankProfile& profile, const CopyRule& rule,
                           ExchangeAlgorithm exchange_algo) {
  ExchangeRouter router(comm);
  const auto stats = execute_copy(profile, rule, router);
  router.flush(profile, exchange_algo);
  return stats;
}

namespace {

void validate_output(const OutputSpec& out, int max_a_arity, int max_b_arity,
                     const char* what) {
  if (out.target == nullptr) throw std::invalid_argument(std::string(what) + ": no target");
  if (out.cols.size() != out.target->arity()) {
    throw std::invalid_argument(std::string(what) + " -> " + out.target->name() +
                                ": head arity mismatch");
  }
  for (const auto& e : out.cols) {
    if (e.max_col_a() >= max_a_arity || e.max_col_b() >= max_b_arity) {
      throw std::invalid_argument(std::string(what) + " -> " + out.target->name() +
                                  ": column reference out of range");
    }
  }
}

}  // namespace

void validate_rule(const Rule& rule) {
  if (const auto* j = std::get_if<JoinRule>(&rule)) {
    if (j->a == nullptr || j->b == nullptr) throw std::invalid_argument("join: null side");
    if (j->a->jcc() != j->b->jcc()) {
      throw std::invalid_argument("join " + j->a->name() + " x " + j->b->name() +
                                  ": sides disagree on join-column count");
    }
    if (j->pre_filter) {
      if (!j->anti) {
        throw std::invalid_argument("join: pre_filter is only meaningful on antijoins");
      }
      if (j->pre_filter->max_col_b() >= 0) {
        throw std::invalid_argument("antijoin pre_filter may not reference the negated side");
      }
    }
    if (j->anti) {
      // Heads of antijoins cannot read the (absent) B side, and B must not
      // be rebalanced away from single sub-buckets mid-run.
      for (const auto& e : j->out.cols) {
        if (e.max_col_b() >= 0) {
          throw std::invalid_argument("antijoin -> " + j->out.target->name() +
                                      ": head may not reference the negated side");
        }
      }
      if (j->b->sub_buckets() != 1 || j->b->config().balanceable) {
        throw std::invalid_argument("antijoin against " + j->b->name() +
                                    ": the negated relation must stay in a single "
                                    "sub-bucket (absence is a global property)");
      }
    }
    validate_output(j->out, static_cast<int>(j->a->arity()), static_cast<int>(j->b->arity()),
                    "join");
    if (j->filter) {
      if (j->filter->max_col_a() >= static_cast<int>(j->a->arity()) ||
          j->filter->max_col_b() >= static_cast<int>(j->b->arity())) {
        throw std::invalid_argument("join filter: column reference out of range");
      }
    }
    return;
  }
  const auto& c = std::get<CopyRule>(rule);
  if (c.src == nullptr) throw std::invalid_argument("copy: null source");
  validate_output(c.out, static_cast<int>(c.src->arity()), 0, "copy");
  if (c.filter && c.filter->max_col_a() >= static_cast<int>(c.src->arity())) {
    throw std::invalid_argument("copy filter: column reference out of range");
  }
}

}  // namespace paralagg::core
