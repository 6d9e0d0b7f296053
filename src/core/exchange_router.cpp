#include "core/exchange_router.hpp"

#include <cassert>
#include <unordered_map>

#include "core/phase_scope.hpp"
#include "vmpi/serialize.hpp"

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
  if (rows.size() <= arity) return;  // nothing to collapse

  if (!rel.aggregated()) {
    // Plain target: keep the first occurrence of each row.
    std::unordered_map<Tuple, std::size_t, storage::TupleHash> seen;
    std::size_t w = 0;
    for (std::size_t r = 0; r < rows.size(); r += arity) {
      const std::span<const value_t> row(rows.data() + r, arity);
      auto [it, inserted] = seen.try_emplace(Tuple(row), w);
      if (!inserted) {
        ++st.rows_combined;
        continue;
      }
      if (w != r) std::copy(row.begin(), row.end(), rows.begin() + static_cast<std::ptrdiff_t>(w));
      w += arity;
    }
    rows.resize(w);
    return;
  }

  // Aggregated target: fold rows agreeing on the independent columns
  // through the lattice join before they hit the wire (partial partial
  // aggregates).  The destination's staging pass stays correct either way;
  // this only shrinks the exchange.
  const std::size_t ia = rel.indep_arity();
  const std::size_t dep = rel.dep_arity();
  const auto& agg = *rel.config().aggregator;
  std::unordered_map<Tuple, std::size_t, storage::TupleHash> first;  // key -> kept row offset
  std::vector<value_t> scratch(dep);
  std::size_t w = 0;
  for (std::size_t r = 0; r < rows.size(); r += arity) {
    const std::span<const value_t> row(rows.data() + r, arity);
    auto [it, inserted] = first.try_emplace(Tuple(row.first(ia)), w);
    if (inserted) {
      if (w != r) std::copy(row.begin(), row.end(), rows.begin() + static_cast<std::ptrdiff_t>(w));
      w += arity;
      continue;
    }
    // partial_agg's out may alias neither input: stage through scratch.
    value_t* acc = rows.data() + it->second + ia;
    agg.partial_agg(std::span<const value_t>(acc, dep), row.subspan(ia),
                    std::span<value_t>(scratch));
    std::copy(scratch.begin(), scratch.end(), acc);
    ++st.rows_combined;
  }
  rows.resize(w);
}

std::vector<vmpi::Bytes> ExchangeRouter::pack(RouterFlushStats& st) {
  const auto n = static_cast<std::size_t>(comm_->size());
#ifndef NDEBUG
  const auto me = static_cast<std::size_t>(comm_->rank());
#endif
  std::vector<vmpi::Bytes> send(n);
  for (std::size_t d = 0; d < n; ++d) {
    vmpi::TypedWriter<value_t> w;
    for (std::size_t id = 0; id < targets_.size(); ++id) {
      auto& rows = bucket(id, d);
      if (rows.empty()) continue;
      assert(d != me && "self-owned rows take the loopback path");
      const Relation& rel = *targets_[id];
      if (preaggregate_) combine(rel, rows, st);
      st.rows_sent += put_route_group(w, id, rows, rel.arity());
    }
    send[d] = w.take();
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
  for (const auto& buf : received) {
    // Zero-copy decode: the frame body is staged straight from the receive
    // buffer, no per-tuple materialization.
    decode_route_frame(buf, targets_, [&](std::size_t id, std::span<const value_t> rows) {
      targets_[id]->stage_rows(rows);
      st.rows_staged += rows.size() / targets_[id]->arity();
    });
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
