#include "core/exchange_router.hpp"

#include <cassert>
#include <cstring>
#include <string>
#include <unordered_map>

#include "core/phase_scope.hpp"
#include "vmpi/serialize.hpp"

namespace paralagg::core {

namespace {

/// A hierarchical leg frame: the flush sequence word, then the groups.
vmpi::TypedWriter<value_t> hier_writer(value_t seq) {
  vmpi::TypedWriter<value_t> w;
  w.put(seq);
  return w;
}

/// Finish a leg frame; a leg with no rows stays zero bytes on the wire.
vmpi::Bytes hier_take(vmpi::TypedWriter<value_t>& w) {
  return w.elements() > 1 ? w.take() : vmpi::Bytes{};
}

/// Check a leg frame's sequence word against this flush and return the
/// groups behind it (empty for an empty frame).
std::span<const std::byte> open_hier(std::span<const std::byte> buf, value_t seq,
                                     const char* leg) {
  if (buf.empty()) return buf;
  value_t got = 0;
  if (buf.size() >= sizeof got) std::memcpy(&got, buf.data(), sizeof got);
  if (buf.size() < sizeof got || got != seq) {
    throw vmpi::FrameDecodeError(std::string("router: stale hierarchical ") + leg + " frame");
  }
  return buf.subspan(sizeof got);
}

}  // namespace

std::vector<vmpi::Bytes> exchange_alltoallv(vmpi::Comm& comm, std::vector<vmpi::Bytes> send,
                                            ExchangeAlgorithm algo) {
  // kHierarchical degrades to the dense matrix here: the two-level path
  // needs the router's combine context to be worth its extra hops, and the
  // intra-bucket shuffles this helper serves have none.
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
      const auto count = rows.size() / rel.arity();
      w.put(static_cast<value_t>(id));
      w.put(static_cast<value_t>(count));
      w.put_span(std::span<const value_t>(rows));
      st.rows_sent += count;
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

void ExchangeRouter::stage_frame(std::span<const std::byte> frame, RouterFlushStats& st) {
  decode_route_frame(frame, targets_, std::nullopt,
                     [&](int, std::size_t id, std::span<const value_t> rows) {
                       targets_[id]->stage_rows(rows);
                       st.rows_staged += rows.size() / targets_[id]->arity();
                     });
}

void ExchangeRouter::decode(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
                            RankProfile& profile) {
  PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
  for (const auto& buf : received) {
    // Zero-copy decode: the frame body is staged straight from the receive
    // buffer, no per-tuple materialization.
    stage_frame(buf, st);
  }
  profile.add_work(Phase::kDedupAgg, st.rows_staged);
}

RouterFlushStats ExchangeRouter::flush(RankProfile& profile, ExchangeAlgorithm algo) {
  RouterFlushStats st;
  st.rows_loopback = loopback_rows_;
  loopback_rows_ = 0;
  st.rows_hot_routed = hot_routed_rows_;
  hot_routed_rows_ = 0;

  const bool hier =
      algo == ExchangeAlgorithm::kHierarchical && comm_->topology().node_size > 1;
  const std::uint64_t seq = hier ? hier_seq_++ : 0;
  std::vector<int> leaders;
  std::vector<vmpi::Bytes> received;
  {
    PhaseScope scope(*comm_, profile, Phase::kAllToAll);
    if (hier) {
      {
        // Leader election by load: the member with the most staged delta
        // bytes aggregates, so the node's heaviest buffer never crosses
        // the intra-node wire.  Election metadata, not payload — the
        // allgather runs unaccounted (StatsPause) like the schedule
        // bookkeeping, keeping byte totals election-invariant.
        std::uint64_t my_load = 0;
        for (const auto& rows : outgoing_) my_load += rows.size() * sizeof(value_t);
        vmpi::StatsPause pause(*comm_);
        leaders = comm_->topology().elect_leaders(comm_->allgather<std::uint64_t>(my_load));
      }
      st.elected_leader =
          leaders[static_cast<std::size_t>(comm_->topology().node_of(comm_->rank()))];
      auto send = pack_hier(st, leaders, seq);
      profile.add_work(Phase::kAllToAll, st.rows_sent);
      received = comm_->alltoallv_mailbox(std::move(send));
      // Gather and scatter legs on top of the leaders' exchange (which
      // records its own step); recorded on every rank so per-rank step
      // counts stay uniform, as for the scheduled collectives' rounds.
      comm_->account_steps(vmpi::Op::kAlltoallv, 2);
    } else {
      auto send = pack(st);
      profile.add_work(Phase::kAllToAll, st.rows_sent);
      received = exchange_alltoallv(*comm_, std::move(send), algo);
    }
  }
  recycle();  // the exchange copied everything out already
  if (hier) {
    absorb_hier(received, st, profile, leaders, seq);
  } else {
    decode(received, st, profile);
  }
  return st;
}

std::vector<vmpi::Bytes> ExchangeRouter::pack_hier(RouterFlushStats& st,
                                                   const std::vector<int>& leaders,
                                                   std::uint64_t flush_seq) {
  const int n = comm_->size();
  const auto nsz = static_cast<std::size_t>(n);
  const int me = comm_->rank();
  const vmpi::Topology& topo = comm_->topology();
  const int leader = leaders[static_cast<std::size_t>(topo.node_of(me))];
  const int up_tag = kHierUpTagBase + static_cast<int>(flush_seq % kHierTagWindow);
  const auto seq = static_cast<value_t>(flush_seq);

  std::vector<vmpi::Bytes> send(nsz);

  if (me != leader) {
    // Member: ship every bucket to the node aggregator as one
    // [seq][dst | route | count | rows]* frame, then return the all-empty
    // send vector — exchanging it keeps the leaders-only call collective.
    auto w = hier_writer(seq);
    for (std::size_t d = 0; d < nsz; ++d) {
      for (std::size_t id = 0; id < targets_.size(); ++id) {
        auto& rows = bucket(id, d);
        if (rows.empty()) continue;
        const Relation& rel = *targets_[id];
        if (preaggregate_) combine(rel, rows, st);
        w.put(static_cast<value_t>(d));
        w.put(static_cast<value_t>(id));
        w.put(static_cast<value_t>(rows.size() / rel.arity()));
        w.put_span(std::span<const value_t>(rows));
        st.rows_sent += rows.size() / rel.arity();
      }
    }
    const vmpi::Bytes frame = hier_take(w);
    comm_->account_send(vmpi::Op::kAlltoallv, frame.size(), leader);
    {
      // The gather leg rides the faultable mailbox path, so injected
      // drop/corrupt/delay hit it like any other message; stats pause
      // because the bytes were just attributed to the collective above.
      vmpi::StatsPause pause(*comm_);
      comm_->isend(leader, up_tag, frame);
    }
    pending_rows_ = 0;
    return send;
  }

  // Leader: merge own buckets with every member frame per (final dst,
  // route).  The rows move into the merge scratch, so recycle() sees
  // cleared buffers.
  const std::vector<int> members = topo.node_members(me, n);
  std::vector<std::vector<value_t>> merged(targets_.size() * nsz);
  for (std::size_t id = 0; id < targets_.size(); ++id) {
    for (std::size_t d = 0; d < nsz; ++d) {
      auto& rows = bucket(id, d);
      if (rows.empty()) continue;
      merged[id * nsz + d] = std::move(rows);
      rows.clear();
    }
  }
  {
    vmpi::StatsPause pause(*comm_);
    for (std::size_t k = 1; k < members.size(); ++k) {
      const vmpi::Bytes buf = comm_->recv(vmpi::kAnySource, up_tag);
      decode_route_frame(open_hier(buf, seq, "gather"), targets_, DstRange{0, n},
                         [&](int d, std::size_t id, std::span<const value_t> rows) {
                           auto& acc = merged[id * nsz + static_cast<std::size_t>(d)];
                           acc.insert(acc.end(), rows.begin(), rows.end());
                         });
    }
  }

  // Node-level pre-aggregation: one combine pass over each merged bucket
  // collapses rows different members generated for the same key before
  // they cross nodes — the volume reduction the two-level exchange buys.
  if (preaggregate_) {
    for (std::size_t id = 0; id < targets_.size(); ++id) {
      const Relation& rel = *targets_[id];
      for (std::size_t d = 0; d < nsz; ++d) {
        auto& rows = merged[id * nsz + d];
        if (rows.empty()) continue;
        RouterFlushStats node_st;
        combine(rel, rows, node_st);
        st.rows_node_merged += node_st.rows_combined;
      }
    }
  }

  // One frame per destination node, addressed to its elected leader; the
  // final destination travels in-band so the peer leader can scatter.
  for (const int peer : leaders) {
    auto w = hier_writer(seq);
    for (const int d : topo.node_members(peer, n)) {
      for (std::size_t id = 0; id < targets_.size(); ++id) {
        const auto& rows = merged[id * nsz + static_cast<std::size_t>(d)];
        if (rows.empty()) continue;
        const Relation& rel = *targets_[id];
        w.put(static_cast<value_t>(d));
        w.put(static_cast<value_t>(id));
        w.put(static_cast<value_t>(rows.size() / rel.arity()));
        w.put_span(std::span<const value_t>(rows));
        st.rows_sent += rows.size() / rel.arity();
      }
    }
    send[static_cast<std::size_t>(peer)] = hier_take(w);
  }
  pending_rows_ = 0;
  return send;
}

void ExchangeRouter::absorb_hier(const std::vector<vmpi::Bytes>& received,
                                 RouterFlushStats& st, RankProfile& profile,
                                 const std::vector<int>& leaders, std::uint64_t flush_seq) {
  const int n = comm_->size();
  const int me = comm_->rank();
  const vmpi::Topology& topo = comm_->topology();
  const int leader = leaders[static_cast<std::size_t>(topo.node_of(me))];
  const int down_tag = kHierDownTagBase + static_cast<int>(flush_seq % kHierTagWindow);
  const auto seq = static_cast<value_t>(flush_seq);

  if (me != leader) {
    // Member: the leaders' exchange delivered only empties here; the node
    // rows arrive as one [seq][route | count | rows]* scatter frame.
    vmpi::Bytes buf;
    {
      PhaseScope scope(*comm_, profile, Phase::kAllToAll);
      vmpi::StatsPause pause(*comm_);
      buf = comm_->recv(leader, down_tag);
    }
    PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
    stage_frame(open_hier(buf, seq, "scatter"), st);
    profile.add_work(Phase::kDedupAgg, st.rows_staged);
    return;
  }

  // Leader: split every arriving leader frame by final destination —
  // stage own rows, forward the rest as one frame per member.
  // Node ranks are contiguous, so member index == d - node_base (the
  // elected leader may sit anywhere in the block, hence base, not me).
  const int base = topo.node_base(me);
  const std::vector<int> members = topo.node_members(me, n);
  std::vector<std::vector<value_t>> fwd(members.size() * targets_.size());
  {
    PhaseScope scope(*comm_, profile, Phase::kDedupAgg);
    const DstRange node{base, base + static_cast<int>(members.size())};
    for (const auto& buf : received) {
      decode_route_frame(open_hier(buf, seq, "leaders"), targets_, node,
                         [&](int d, std::size_t id, std::span<const value_t> rows) {
                           if (d == me) {
                             targets_[id]->stage_rows(rows);
                             st.rows_staged += rows.size() / targets_[id]->arity();
                           } else {
                             const auto member = static_cast<std::size_t>(d - base);
                             auto& acc = fwd[member * targets_.size() + id];
                             acc.insert(acc.end(), rows.begin(), rows.end());
                           }
                         });
    }
    profile.add_work(Phase::kDedupAgg, st.rows_staged);
  }
  {
    PhaseScope scope(*comm_, profile, Phase::kAllToAll);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const int m = members[i];
      if (m == me) continue;  // own rows were staged above
      auto w = hier_writer(seq);
      for (std::size_t id = 0; id < targets_.size(); ++id) {
        const auto& rows = fwd[i * targets_.size() + id];
        if (rows.empty()) continue;
        const Relation& rel = *targets_[id];
        w.put(static_cast<value_t>(id));
        w.put(static_cast<value_t>(rows.size() / rel.arity()));
        w.put_span(std::span<const value_t>(rows));
      }
      const vmpi::Bytes frame = hier_take(w);
      comm_->account_send(vmpi::Op::kAlltoallv, frame.size(), m);
      // Faultable, like the gather leg.
      vmpi::StatsPause pause(*comm_);
      comm_->isend(m, down_tag, frame);
    }
  }
}

}  // namespace paralagg::core
