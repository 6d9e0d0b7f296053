#pragma once

// Distributed relations with bucket/sub-bucket double hashing.
//
// A relation's tuples are laid out in *stored order*:
//
//   [ join columns | other independent columns | dependent columns ]
//     0 .. jcc-1     jcc .. indep_arity-1        indep_arity .. arity-1
//
// Distribution (paper §II-D, §IV-A):
//   bucket      = H1(join columns)              mod  num_buckets
//   sub-bucket  = H2(other independent columns) mod  sub_buckets
//   rank        = (bucket * sub_buckets + sub)  mod  nranks
//
// Dependent (aggregated) columns participate in *neither* hash — that is
// the communication-avoiding restriction: any two tuples that agree on
// their independent columns land on the same rank no matter what partial
// aggregate they carry, so aggregation can be fused with deduplication
// locally, with zero extra communication (paper §IV-A).
//
// Each rank holds its partition in two B-trees (full and delta, keyed on
// the independent columns) plus a staging area where tuples arriving from
// the all-to-all exchange are *pre-aggregated* before materialization.
// Fact loading bypasses staging: it sorts the received rows, folds equal
// keys and bulk-builds the trees (DESIGN.md §5.1).

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/aggregator.hpp"
#include "core/types.hpp"
#include "storage/btree.hpp"
#include "vmpi/comm.hpp"

namespace paralagg::core {

struct RelationConfig {
  std::string name;
  std::size_t arity = 0;
  /// Join-column count: the tuple prefix the relation is indexed and
  /// bucketed on.  Joins match this prefix against the other side's.
  std::size_t jcc = 1;
  /// Trailing aggregated columns (0 = plain relation).
  std::size_t dep_arity = 0;
  AggregatorPtr aggregator;  // required iff dep_arity > 0
  AggMode agg_mode = AggMode::kLattice;
  /// Sub-buckets per bucket (spatial load balancing fan-out, paper §IV-C).
  int sub_buckets = 1;
  /// May the spatial load balancer raise sub_buckets at run time?
  bool balanceable = false;
};

struct MaterializeResult {
  std::uint64_t staged = 0;    // tuples received this iteration (pre-agg keys)
  std::uint64_t inserted = 0;  // new keys
  std::uint64_t updated = 0;   // existing keys whose accumulator ascended
  std::uint64_t rejected = 0;  // no new information (paper Fig. 1, right)
  std::size_t delta_size = 0;
};

class Relation {
 public:
  /// Collective only in the sense that every rank must construct the same
  /// relation in the same order; the constructor itself does not
  /// communicate.
  Relation(vmpi::Comm& comm, RelationConfig cfg);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  // -- metadata ---------------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] const RelationConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t arity() const { return cfg_.arity; }
  [[nodiscard]] std::size_t jcc() const { return cfg_.jcc; }
  [[nodiscard]] std::size_t dep_arity() const { return cfg_.dep_arity; }
  [[nodiscard]] std::size_t indep_arity() const { return cfg_.arity - cfg_.dep_arity; }
  [[nodiscard]] bool aggregated() const { return cfg_.dep_arity > 0; }
  [[nodiscard]] int sub_buckets() const { return sub_buckets_; }
  [[nodiscard]] vmpi::Comm& comm() const { return *comm_; }

  // -- distribution -------------------------------------------------------------

  [[nodiscard]] std::uint32_t num_buckets() const { return num_buckets_; }
  [[nodiscard]] std::uint32_t bucket_of(std::span<const value_t> tuple) const;
  [[nodiscard]] std::uint32_t sub_bucket_of(std::span<const value_t> tuple) const;
  [[nodiscard]] int rank_of(std::uint32_t bucket, std::uint32_t sub) const;
  [[nodiscard]] int owner_rank(std::span<const value_t> tuple) const;
  /// What-if variants of sub_bucket_of / rank_of under a *candidate*
  /// sub-bucket count — the balancer's planner projects where tuples would
  /// land at each fan-out before committing to a reshuffle.
  [[nodiscard]] std::uint32_t sub_bucket_for(std::span<const value_t> tuple,
                                             int sub_buckets) const;
  [[nodiscard]] int rank_for(std::uint32_t bucket, std::uint32_t sub,
                             int sub_buckets) const;
  /// Distinct ranks holding any sub-bucket of `bucket` (the destinations of
  /// intra-bucket replication when this relation is the inner side).
  void ranks_of_bucket(std::uint32_t bucket, std::vector<int>& out) const;

  // -- heavy-hitter layout (skew-optimal routing, DESIGN.md §13) ---------------
  //
  // A relation may carry a *hot set* of join-key prefixes (adopted via
  // adopt_hot_keys, detected by core::detect_hot_keys).  Rows whose join
  // key is hot are spread across ALL ranks by H2 over the non-join
  // independent columns — a pure function of row content, independent of
  // the bucket/sub-bucket layout — instead of living at their owner rank.
  // Dependent columns stay out of the hash, so equal-key aggregate folds
  // still collide on one rank and fused dedup/aggregation stays local.

  /// Where a row lives under the current layout: the hot spread rank for
  /// hot keys, owner_rank for everything else.
  [[nodiscard]] int route_rank(std::span<const value_t> tuple) const;
  /// Is `tuple`'s join-key prefix (its first jcc() columns) currently hot?
  /// `tuple` may be a full row or a bare jcc-column key.
  [[nodiscard]] bool key_is_hot(std::span<const value_t> tuple) const {
    return !hot_set_.empty() && hot_set_.count(Tuple(tuple.subspan(0, cfg_.jcc))) > 0;
  }
  /// Current hot keys, in the deterministic (count desc, key asc) adoption
  /// order; identical on every rank.
  [[nodiscard]] const std::vector<Tuple>& hot_keys() const { return hot_keys_; }

  /// Switch to a new hot set, moving the rows of every key that changed
  /// hotness (newly hot -> spread by H2; no longer hot -> back to owner).
  /// Keys hot before and after keep their placement: the spread rank is a
  /// pure function of row content.  Collective; must run between
  /// iterations (staging empty).  Returns the rows this rank shipped.
  /// No-op (hot set stays empty) when the relation has no non-join
  /// independent columns — H2 has nothing to hash, so spreading is
  /// impossible.
  std::uint64_t adopt_hot_keys(std::vector<Tuple> keys);

  // -- local storage ------------------------------------------------------------

  [[nodiscard]] storage::TupleBTree& tree(Version v) {
    return v == Version::kFull ? full_ : delta_;
  }
  [[nodiscard]] const storage::TupleBTree& tree(Version v) const {
    return v == Version::kFull ? full_ : delta_;
  }
  [[nodiscard]] std::size_t local_size(Version v) const { return tree(v).size(); }

  // -- staging + fused dedup/aggregation ---------------------------------------

  /// Stage a tuple that this rank owns (arrived via all-to-all or was
  /// generated locally for a local bucket).  For aggregated relations this
  /// performs the *local aggregation* immediately: within-iteration
  /// duplicates of a key are collapsed before they ever touch the B-tree.
  void stage(std::span<const value_t> tuple);

  /// Bulk staging: `rows` is a flat concatenation of stored-order tuples
  /// (size a multiple of arity), all owned by this rank.  Pre-reserves the
  /// staging container from the row count — the fused exchange decode path
  /// lands here, and without the reserve large deltas trigger rehash
  /// storms (visible in CC on RMAT inputs).
  void stage_rows(std::span<const value_t> rows);

  /// Grow the staging container for `extra` incoming keys ahead of a batch.
  void reserve_staging(std::size_t extra);

  /// Fused deduplication / aggregation (paper §IV-A): fold the staging
  /// area into full, computing the next delta.  Local; no communication.
  MaterializeResult materialize();

  /// Drop every tuple and staged row (full, delta, staging).  Local; the
  /// checkpoint-restore path clears a relation before repopulating it,
  /// and serving clears projection targets before each batch re-derives
  /// them.  Support counts (when enabled) are cleared too.  Inside a batch
  /// the old full, delta and support map are moved aside, not freed.
  void reset();

  // -- support counts (incremental serving) ------------------------------------
  //
  // With support counting enabled, stage() also counts derivation *events*
  // per key (the independent-column prefix; the whole tuple for plain
  // relations) — how many times anything derived that key, across
  // iterations, before any same-iteration pre-aggregation collapses them.
  // The serving layer's DRed-style deletion uses the counts to retract
  // conclusions whose last support disappeared.  For aggregated relations
  // the counts are advisory (the retract decision also compares the stored
  // aggregate against the invalidated derivation's value — see
  // DESIGN.md §11); for plain relations they are exact under per-event
  // staging.  Counting requires per-event granularity, so serving runs the
  // engine with sender-side pre-aggregation off.

  /// Turn on support counting (idempotent).  Local; enable before any
  /// facts are loaded or derived so every event is counted.
  void enable_support_counts() { support_counts_ = true; }
  [[nodiscard]] bool support_counts_enabled() const { return support_counts_; }

  /// Drop every support entry, keeping the stored tuples.  The serving
  /// warm start clears the manifest-load counts (1 per key) right before
  /// its superset re-derivation pass recounts every surviving event.
  void clear_support_counts() { support_.clear(); }

  /// Current support of `key` (indep_arity() columns); 0 when unknown.
  [[nodiscard]] std::uint64_t support_of(std::span<const value_t> key) const;

  /// Subtract `n` from `key`'s support, saturating at 0; returns what
  /// remains.  Local.
  std::uint64_t support_release(std::span<const value_t> key, std::uint64_t n);

  /// Remove the stored tuple for `key` (indep_arity() columns) from full
  /// (and delta, if present) and drop its support entry.  Returns the
  /// removed full row, or an empty tuple if the key was absent.  Local.
  Tuple retract_key(std::span<const value_t> key);

  [[nodiscard]] std::size_t staged_count() const {
    return aggregated() ? staged_agg_.size() : staged_set_.size();
  }

  /// Every support entry (key -> count).  Local; read-only view for
  /// diagnostics and tests.
  [[nodiscard]] const std::unordered_map<Tuple, std::uint64_t, storage::TupleHash>&
  support_counts() const {
    return support_;
  }

  /// Insert `row` into full unless its key is already stored; true iff it
  /// was added.  Local.  The serving engine's base and reverse-index
  /// mutations go through here (and retract_key) so a batch journals them.
  bool insert_full(std::span<const value_t> row);

  // -- batch undo log (serving rollback) ---------------------------------------
  //
  // Between begin_batch() and commit_batch() / undo_batch() the relation
  // journals its own mutations.  The first time the batch touches a key,
  // the log records that key's pre-batch image in full (absent, or the
  // old row), in delta (the same) and in the support map (absent, or the
  // old count).  Wholesale replacements move the old container aside in
  // O(1) instead of logging it row by row: the batch's first delta rebuild
  // moves the pre-batch delta aside, and reset() moves full, delta and the
  // support map aside.  So a batch costs O(keys it touches), never
  // O(state).  Staging is not journaled: a batch begins between
  // iterations, and undo_batch() clears whatever an abort left staged.

  /// Start journaling.  Local; legal only between iterations, outside a
  /// batch.
  void begin_batch();
  /// Keep the batch: drop the log and the moved-aside containers.  Local.
  void commit_batch();
  /// Return to exactly the state at begin_batch(): restore the moved-aside
  /// containers, then replay the log backwards.  Local; the serving engine
  /// calls it on every rank after an aborted batch.
  void undo_batch();
  /// Between begin_batch() and commit_batch() / undo_batch()?
  [[nodiscard]] bool in_batch() const { return journaling_; }
  /// Keys the current batch has journaled so far.
  [[nodiscard]] std::size_t undo_entries() const { return undo_.size(); }

  // -- collective operations ----------------------------------------------------

  /// Distribute and materialize initial facts.  Collective: every rank
  /// calls it with its (possibly empty) slice; each tuple is routed to its
  /// owner as part of a key-sorted run per destination, and the owner
  /// merges the runs it received, folds equal keys (duplicates dropped,
  /// aggregates joined in source-rank order, one support event per row)
  /// and bulk-builds its trees.  Into an empty relation the delta
  /// equals the loaded set; into a populated one it holds the new and
  /// ascended rows, as materialize() would.  Refresh relations replace
  /// their state and keep no delta.  Must run between iterations.
  void load_facts(std::span<const Tuple> slice);

  /// Global tuple count of a version.  Collective.
  [[nodiscard]] std::uint64_t global_size(Version v);

  /// All tuples of `full`, gathered to `root` and sorted (empty elsewhere).
  /// Collective.  Test/readout oracle.
  [[nodiscard]] std::vector<Tuple> gather_to_root(int root = 0);

  /// Re-shard to a new sub-bucket count (spatial load balancing).
  /// Collective; returns the remote bytes this rank shipped.  When
  /// `cross_bytes` is given, it receives the cross-node portion (classified
  /// against the comm's topology) so the balancer can account locality.
  std::uint64_t reshuffle_to_sub_buckets(int new_sub_buckets,
                                         std::uint64_t* cross_bytes = nullptr);

  /// Persist the full version to a binary checkpoint file (rank 0 writes).
  /// Collective.  Long-running deductive jobs on shared clusters need
  /// restartability; checkpoints also let a fixpoint computed at one rank
  /// count be reloaded at another (the file is layout-independent).
  void save_checkpoint(const std::string& path);

  /// Replace this relation's contents with a checkpoint written by
  /// save_checkpoint (any rank count / sub-bucket layout).  Collective;
  /// rank 0 reads and scatters.  After loading, delta == full, as after
  /// load_facts.  Throws std::runtime_error on IO or format errors.
  void load_checkpoint(const std::string& path);

 private:
  /// Throws std::invalid_argument on a malformed shape; runs before any
  /// member is built from it.
  static RelationConfig validated(RelationConfig cfg);
  /// Every row of `full`, gathered to `root` flat in source-rank order
  /// (empty elsewhere).  Collective.
  std::vector<value_t> gather_full(int root);
  /// out := cur_dep ⊔ dep; true iff that strictly ascends past cur_dep.
  bool ascend(std::span<const value_t> cur_dep, std::span<const value_t> dep,
              std::span<value_t> out) const;
  /// Collapse each group of equal keys in a sort_run-ordered run into its
  /// first row, counting one support event per row when enabled.
  void fold_sorted_run(std::vector<value_t>& run);
  /// Merge a folded run into a populated full_ in one pass over its leaf
  /// chain; rebuild full_ and make delta_ the new and ascended rows.
  void merge_into_full(std::span<const value_t> run);
  [[nodiscard]] std::size_t effective_sub_cols() const {
    return indep_arity() - cfg_.jcc;  // columns feeding H2
  }
  /// Log `key`'s pre-batch image before its first mutation in a batch
  /// (no-op outside a batch, for a key already logged, or when every
  /// container it lives in was moved aside).
  void journal(std::span<const value_t> key);
  /// Before a wholesale replacement of `v`: move it aside in a batch (the
  /// first time only); outside a batch, a no-op.
  void set_aside(Version v);
  void set_aside_support();

  vmpi::Comm* comm_;
  RelationConfig cfg_;
  std::uint32_t num_buckets_;
  int sub_buckets_;

  storage::TupleBTree full_;
  storage::TupleBTree delta_;

  // Staging: plain relations deduplicate, aggregated relations pre-aggregate.
  std::unordered_set<Tuple, storage::TupleHash> staged_set_;
  std::unordered_map<Tuple, Tuple, storage::TupleHash> staged_agg_;  // key -> dep

  // Derivation-event counts per key (serving mode only; empty otherwise).
  bool support_counts_ = false;
  std::unordered_map<Tuple, std::uint64_t, storage::TupleHash> support_;

  // Batch undo log (see begin_batch).  One entry per key the batch
  // touched; a part is logged only if its container was still in place.
  struct UndoEntry {
    static constexpr std::uint8_t kFull = 1, kDelta = 2, kSupport = 4;
    Tuple key;
    Tuple full;   // pre-batch full row; empty = absent
    Tuple delta;  // pre-batch delta row; empty = absent
    std::optional<std::uint64_t> support;  // pre-batch count; nullopt = absent
    std::uint8_t logged = 0;               // which of kFull / kDelta / kSupport
  };
  bool journaling_ = false;
  std::vector<UndoEntry> undo_;
  std::unordered_set<Tuple, storage::TupleHash> touched_;  // keys in undo_
  std::optional<storage::TupleBTree> aside_full_, aside_delta_;
  std::optional<std::unordered_map<Tuple, std::uint64_t, storage::TupleHash>> aside_support_;

  // Hot set (both containers hold the same keys; the vector preserves the
  // deterministic adoption order, the set answers key_is_hot in O(1)).
  std::vector<Tuple> hot_keys_;
  std::unordered_set<Tuple, storage::TupleHash> hot_set_;
};

}  // namespace paralagg::core
