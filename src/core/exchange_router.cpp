#include "core/exchange_router.hpp"

#include <algorithm>
#include <cassert>

#include "core/phase_scope.hpp"

namespace paralagg::core {

std::vector<vmpi::Bytes> exchange_alltoallv(vmpi::Comm& comm, std::vector<vmpi::Bytes> send,
                                            ExchangeAlgorithm algo) {
  return algo == ExchangeAlgorithm::kBruck ? comm.alltoallv_bruck(std::move(send))
                                           : comm.alltoallv(std::move(send));
}

ExchangeRouter::ExchangeRouter(vmpi::Comm& comm, bool preaggregate)
    : comm_(&comm), preaggregate_(preaggregate) {}

std::uint32_t ExchangeRouter::add_target(Relation* rel) {
  assert(rel != nullptr);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i] == rel) return static_cast<std::uint32_t>(i);
  }
  targets_.push_back(rel);
  outgoing_.resize(targets_.size() * static_cast<std::size_t>(comm_->size()));
  return static_cast<std::uint32_t>(targets_.size() - 1);
}

void ExchangeRouter::emit(std::uint32_t route_id, std::span<const value_t> row) {
  assert(route_id < targets_.size());
  Relation* rel = targets_[route_id];
  assert(row.size() == rel->arity());
  // route_rank: a row for a hot join key lands on its H2 spread rank so a
  // heavy hitter's derivations fan across all ranks (DESIGN.md §13).
  const int dst = rel->route_rank(row);
  if (rel->key_is_hot(row)) ++hot_routed_rows_;
  if (dst == comm_->rank()) {
    // Loopback fast path: the row never sees a serialization buffer.
    rel->stage(row);
    ++loopback_rows_;
    return;
  }
  auto& rows = bucket(route_id, static_cast<std::size_t>(dst));
  rows.insert(rows.end(), row.begin(), row.end());
  ++pending_rows_;
}

void ExchangeRouter::combine(const Relation& rel, std::vector<value_t>& rows,
                             RouterFlushStats& st) {
  const std::size_t arity = rel.arity();
  const std::size_t ia = rel.indep_arity();
  // Sorted rows compress, and rows with equal keys are adjacent.  Without
  // pre-aggregation every derivation still ships (serving's support counts
  // and the baseline count each one).
  sort_rows(rows, arity);
  if (!preaggregate_ || rows.size() <= arity) return;

  // Fold each run of equal independent columns into its first row.  Plain
  // targets (key = whole row) drop duplicates; aggregated targets fold
  // through the lattice join before the rows hit the wire (partial partial
  // aggregates).  The destination's staging pass stays correct either way;
  // this only shrinks the exchange.
  const std::size_t dep = rel.dep_arity();
  const RecursiveAggregator* agg = rel.aggregated() ? rel.config().aggregator.get() : nullptr;
  std::vector<value_t> scratch(dep);
  std::size_t w = 0;  // offset of the row being folded into
  for (std::size_t r = arity; r < rows.size(); r += arity) {
    value_t* kept = rows.data() + w;
    const value_t* row = rows.data() + r;
    if (!std::equal(row, row + ia, kept)) {
      w += arity;
      if (w != r) std::copy(row, row + arity, rows.data() + w);
      continue;
    }
    if (agg != nullptr) {
      // partial_agg's out may alias neither input: stage through scratch.
      agg->partial_agg(std::span<const value_t>(kept + ia, dep),
                       std::span<const value_t>(row + ia, dep), std::span<value_t>(scratch));
      std::copy(scratch.begin(), scratch.end(), kept + ia);
    }
    ++st.rows_combined;
  }
  rows.resize(w + arity);
}

std::vector<vmpi::Bytes> ExchangeRouter::pack(RouterFlushStats& st) {
  const auto n = static_cast<std::size_t>(comm_->size());
#ifndef NDEBUG
  const auto me = static_cast<std::size_t>(comm_->rank());
#endif
  std::vector<vmpi::Bytes> send(n);
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t id = 0; id < targets_.size(); ++id) {
      auto& rows = bucket(id, d);
      if (rows.empty()) continue;
      assert(d != me && "self-owned rows take the loopback path");
      const Relation& rel = *targets_[id];
      combine(rel, rows, st);
      st.rows_sent += put_row_group(send[d], id, rows, rel.arity());
    }
  }
  pending_rows_ = 0;
  return send;
}

void ExchangeRouter::recycle() {
  for (auto& rows : outgoing_) {
    const std::size_t used = rows.size();
    rows.clear();
    // Capacity is retained across flushes: a per-flush shrink_to_fit forced
    // a full reallocation cycle every iteration of every stratum.  Memory
    // goes back only when the bucket is grossly over-provisioned for what
    // it just carried (e.g. the burst of a fixpoint's first iterations).
    if (rows.capacity() > kShrinkFloorValues && used < rows.capacity() / 8) {
      rows.shrink_to_fit();
    }
  }
}

void ExchangeRouter::decode(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
                            RankProfile& profile) {
  PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
  std::size_t largest = 0;
  for (const auto& buf : received) {
    decode_row_frame(buf, targets_, scratch_, [&](std::size_t id, std::span<const value_t> rows) {
      targets_[id]->stage_rows(rows);
      st.rows_staged += rows.size() / targets_[id]->arity();
      largest = std::max(largest, rows.size());
    });
  }
  // Warm across flushes like the buckets, and shrunk by the same rule.
  if (scratch_.capacity() > kShrinkFloorValues && largest < scratch_.capacity() / 8) {
    scratch_ = std::vector<value_t>();
  }
  profile.add_work(Phase::kDedupAgg, st.rows_staged);
}

RouterFlushStats ExchangeRouter::flush(RankProfile& profile, ExchangeAlgorithm algo) {
  RouterFlushStats st;
  st.rows_loopback = loopback_rows_;
  loopback_rows_ = 0;
  st.rows_hot_routed = hot_routed_rows_;
  hot_routed_rows_ = 0;

  std::vector<vmpi::Bytes> received;
  {
    PhaseScope scope(*comm_, profile, Phase::kAllToAll);
    auto send = pack(st);
    profile.add_work(Phase::kAllToAll, st.rows_sent);
    received = exchange_alltoallv(*comm_, std::move(send), algo);
  }
  recycle();  // the exchange copied everything out already
  decode(received, st, profile);
  return st;
}

}  // namespace paralagg::core
