#pragma once

// Fused per-iteration exchange routing.
//
// The paper's thesis is communication avoidance, yet a naive engine pays
// one all-to-all of generated tuples per *rule* per iteration: a stratum
// with R loop rules issues ~2R collective exchanges per iteration, each
// with its own latency floor.  The ExchangeRouter decouples *emitting* a
// result tuple from *shipping* it: rules append rows into per-destination
// flat value_t buffers owned by the router, and the engine flushes the
// router once per iteration with a single tagged alltoallv — collapsing
// ~2R exchanges to R+1 (the R intra-bucket exchanges remain per join).
//
// Because the router is the single choke point for generated tuples, two
// further communication-avoidance moves become trivial here:
//
//   * Self-loopback fast path: a row owned by the emitting rank bypasses
//     serialization entirely and lands directly in the target's staging
//     area.
//   * Sender-side pre-aggregation (partial partial aggregates): rows bound
//     for the same rank that agree on their independent columns collapse
//     through the target's lattice join *before* they ever hit the wire —
//     the paper's §IV-A fusion, extended across all rules feeding a target.
//     The fold is a sort of the bucket and one pass over adjacent equal
//     keys, and the sort is what the wire codec wants anyway.
//
// Wire format of one flush, per destination rank: one group per target
// relation with rows bound there,
//
//   [ varint route_id | varint row_count | delta-coded rows ]*
//
// written and read by the row codec (core/row_codec.hpp).  Before a group
// is framed its bucket is sorted (sort_rows), so consecutive rows share
// leading columns and code as small deltas; with pre-aggregation on, the
// same pass folds adjacent rows with equal keys.  Empty buckets stay zero
// bytes on the wire.
//
// Route ids are per-router registration indices; every rank must register
// the same relations in the same order (SPMD, like everything else here).
// The async engine's point-to-point frames use the same codec with its own
// route tables.

#include <cstdint>
#include <span>
#include <vector>

#include "core/profile.hpp"
#include "core/relation.hpp"
#include "core/row_codec.hpp"
#include "vmpi/comm.hpp"

namespace paralagg::core {

/// How the tuple exchanges are routed.
enum class ExchangeAlgorithm : std::uint8_t {
  kDense,  // matrix alltoallv (bandwidth-optimal)
  kBruck,  // log-round relay (message-count-optimal; see vmpi::Comm)
};

/// One collective tuple exchange under the chosen algorithm.  Collective.
std::vector<vmpi::Bytes> exchange_alltoallv(vmpi::Comm& comm, std::vector<vmpi::Bytes> send,
                                            ExchangeAlgorithm algo);

struct RouterFlushStats {
  std::uint64_t rows_sent = 0;       // rows serialized toward remote ranks
  std::uint64_t rows_staged = 0;     // rows decoded and staged from the exchange
  std::uint64_t rows_loopback = 0;   // self-owned rows staged without serialization
  std::uint64_t rows_combined = 0;   // rows collapsed by sender-side pre-aggregation
  /// Rows whose join key was hot at emit time: routed to the H2 spread
  /// rank instead of the owner (skew-optimal layout, DESIGN.md §13).
  std::uint64_t rows_hot_routed = 0;
};

class ExchangeRouter {
 public:
  /// `preaggregate` enables the sender-side combine pass at flush time.
  explicit ExchangeRouter(vmpi::Comm& comm, bool preaggregate = true);

  ExchangeRouter(const ExchangeRouter&) = delete;
  ExchangeRouter& operator=(const ExchangeRouter&) = delete;

  /// Register a target relation and return its route id.  Idempotent: a
  /// relation registered twice keeps its first id.  Every rank must
  /// register identical relations in the same order (route ids travel in
  /// the frames).
  std::uint32_t add_target(Relation* rel);

  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] vmpi::Comm& comm() const { return *comm_; }

  /// Route a generated row toward its owner: self-owned rows stage
  /// immediately (loopback fast path), remote rows are buffered until the
  /// next flush.  `row` must be in the target's stored order.
  void emit(std::uint32_t route_id, std::span<const value_t> row);

  /// Rows currently buffered for remote ranks on this rank.
  [[nodiscard]] std::uint64_t pending_rows() const { return pending_rows_; }

  /// One collective exchange carrying every buffered row, decoded straight
  /// into the target relations' staging areas (bulk, with pre-reserve).
  /// Collective: every rank must call flush the same number of times, even
  /// with nothing buffered.
  RouterFlushStats flush(RankProfile& profile, ExchangeAlgorithm algo);

 private:
  /// recycle() returns a bucket's memory only above this capacity (in
  /// value_t) — smaller buffers are cheap to keep warm across flushes.
  static constexpr std::size_t kShrinkFloorValues = std::size_t{1} << 15;

  [[nodiscard]] std::vector<value_t>& bucket(std::size_t route_id, std::size_t dest) {
    return outgoing_[route_id * static_cast<std::size_t>(comm_->size()) + dest];
  }
  /// Sort one (relation, destination) bucket in place and, with
  /// pre-aggregation on, fold adjacent rows with equal keys: plain targets
  /// drop duplicate rows, aggregated targets fold rows with equal
  /// independent columns through the lattice join.
  void combine(const Relation& rel, std::vector<value_t>& rows, RouterFlushStats& st);
  /// Serialize the buckets into per-destination send buffers (combining
  /// when enabled).  Buckets are left intact for recycle().
  std::vector<vmpi::Bytes> pack(RouterFlushStats& st);
  /// Clear the buckets, retaining capacity across flushes; shrink only a
  /// bucket whose capacity dwarfs what it just carried.
  void recycle();
  /// Stage every frame of a finished exchange (Phase::kDedupAgg), one
  /// group at a time through a reused scratch run.
  void decode(const std::vector<vmpi::Bytes>& received, RouterFlushStats& st,
              RankProfile& profile);

  vmpi::Comm* comm_;
  bool preaggregate_;
  std::vector<Relation*> targets_;
  // Flat row buffers, target-major: outgoing_[route_id * nranks + dest].
  std::vector<std::vector<value_t>> outgoing_;
  // One decoded inbound row group at a time.
  std::vector<value_t> scratch_;
  std::uint64_t pending_rows_ = 0;
  std::uint64_t loopback_rows_ = 0;
  std::uint64_t hot_routed_rows_ = 0;
};

}  // namespace paralagg::core
