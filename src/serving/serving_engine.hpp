#pragma once

// Incremental serving: live fixpoint maintenance with point lookups.
//
// Batch evaluation answers "what is the fixpoint of this program over
// this database"; serving answers the question operators actually ask:
// "the database just changed a little — what is the fixpoint NOW, and
// what is spath(v)?"  A ServingEngine wraps a core::Engine into a
// resident service: the compiled Program and its relation B-trees stay
// warm across update batches, each batch re-derives only from the delta
// (never from scratch), and point lookups are served from the resident
// indexes between batches.
//
// The maintenance algorithm is DRed (delete-and-rederive, Gupta et al.)
// specialised to the paper's pre-mappable lattice aggregates:
//
//   deletes   over-delete everything the removed facts *might* support
//             (a retraction wavefront mirroring the rules), then
//   recover   re-derive the retracted keys from the surviving facts, and
//   inserts   seed the semi-naive delta with the new facts' immediate
//             consequences, after which
//   tail      Engine::run_delta continues ordinary semi-naive evaluation
//             from the combined delta to the new fixpoint.
//
// Retraction decisions (DESIGN.md §11):
//   * aggregated targets — retract a key iff the stored aggregate equals
//     the invalidated derivation's value (pre-mappability: if the best
//     support survived, its value still beats the candidate and the key
//     is untouched; equality means the best support is gone and the key
//     must re-derive from survivors).
//   * plain targets — per-key support counts (derivation events counted
//     at stage time); retract when the count hits zero.
//
// Both reach fixpoints bit-identical to from-scratch evaluation on the
// mutated database — test_serving checks exactly that, across rank
// counts.
//
// Rolling restart: every `checkpoint_every_batches` applied batches the
// engine writes a PR-5 checkpoint manifest; a killed process restarts,
// finds the manifest, warm-starts from it (clear counts, superset
// re-derivation pass), replays the batches since, and serves on — the
// same superset-restart argument as checkpoint resume.
//
// Everything here is SPMD-collective: every rank constructs the same
// ServingEngine over the same Program and calls start / apply_updates /
// lookup in the same order.  Lookups are legal between batches and are
// linearized against apply_updates by that program order.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/program.hpp"

namespace paralagg::serving {

using core::Relation;
using core::Tuple;
using core::value_t;

/// Shape or usage errors of the serving layer: a program the incremental
/// maintainer cannot serve, a lookup before start(), an unknown relation.
struct ServingError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ServingConfig {
  /// Engine knobs for the resident engine.  Serving forces the settings
  /// its bookkeeping depends on: sender-side pre-aggregation OFF (support
  /// counts need per-event staging), dense exchange (the one exchange its
  /// fault and rollback paths are tested under: only `exchange_flat`'s row
  /// frames ride the faultable mailboxes), spatial balancing OFF
  /// (support counts are keyed locally and must not migrate mid-service),
  /// and the engine's own iteration checkpointing OFF (serving checkpoints
  /// at batch boundaries instead).
  core::EngineConfig engine;
  /// Manifest path for warm starts and rolling checkpoints.  Empty =
  /// cold-only, no manifests.
  std::string manifest_path;
  /// Write a manifest every this many applied batches (0 = never).
  std::size_t checkpoint_every_batches = 0;
  /// Journal every batch in the relations' undo logs (core::Relation::
  /// begin_batch), so an aborted batch (retry budget exhausted, rank
  /// killed mid-batch, tail cut by the engine's tuple limit) rolls back
  /// to the pre-batch fixpoint and the engine keeps serving lookups —
  /// graceful degradation instead of process restart.  Costs O(keys the
  /// batch touches), not O(state).
  bool rollback = true;
  /// Rendezvous deadline (seconds) for the post-abort world reset; every
  /// live rank must arrive within it or the rollback is abandoned (a rank
  /// is truly gone) and the engine stops serving.  Peers of a killed rank
  /// only unwind once their watchdog fires, so this must comfortably
  /// exceed the watchdog deadline.  0 = wait forever.
  double rollback_timeout_seconds = 30.0;
};

/// One base relation's mutations within a batch.  Rows are full stored-
/// order tuples; a delete must match the stored row exactly (a miss is
/// counted, not an error).  The batch is sharded: each row should be
/// contributed by exactly one rank, but duplicate contributions collapse
/// at the owner (set semantics), so an all-ranks-identical batch is
/// merely wasteful, not wrong.
struct RelationDelta {
  std::string relation;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

using UpdateBatch = std::vector<RelationDelta>;

/// This rank's wall seconds in each stage of one apply_updates.  Not
/// reduced across ranks (a reduction would cost the batch a collective);
/// a stage's critical path is the max over ranks.
struct BatchStageSeconds {
  double base = 0;       // apply_base: route and apply base rows and reverse indexes
  double wavefront = 0;  // DRed over-deletion
  double recovery = 0;   // re-derive retracted keys from survivors
  double seed = 0;       // stage the inserted facts' consequences
  double fold = 0;       // materialize the seed, clear projection targets
  double tail = 0;       // Engine::run_delta to the new fixpoint
  double summary = 0;    // recovered count, cross-rank counter fold, manifest
  double commit = 0;     // undo-log commit (or rollback on an abort)
};

/// What one apply_updates did.  Identical on every rank (folded from an
/// allreduce), except `undo_entries` and `seconds` (this rank's), unless
/// the batch aborted, in which case only the abort fields are meaningful.
struct UpdateResult {
  std::uint64_t base_inserted = 0;    // base rows actually added
  std::uint64_t base_deleted = 0;     // base rows actually removed
  std::uint64_t missing_deletes = 0;  // delete rows that matched nothing
  std::uint64_t retracted = 0;        // derived keys over-deleted (DRed)
  std::uint64_t recovered = 0;        // retracted keys re-derived from survivors
  std::size_t retraction_rounds = 0;  // wavefront rounds until quiescent
  /// Derived-tuple work this batch: staged seed candidates plus every
  /// tuple the tail fixpoint staged.  The serving SLO bench compares this
  /// against a from-scratch run's tuples_generated — incremental must be
  /// strictly cheaper on small batches.
  std::uint64_t tuples_derived = 0;
  std::size_t tail_iterations = 0;    // loop iterations of the tail fixpoint
  bool checkpointed = false;          // this batch wrote a rolling manifest
  /// Undo-log entries this rank's relations held at commit: one per key
  /// the batch touched in a relation whose containers were not moved
  /// aside wholesale.  0 with rollback off.
  std::uint64_t undo_entries = 0;
  BatchStageSeconds seconds;
  /// The tail stopped at EngineConfig::tuple_limit short of the new
  /// fixpoint.  Handled like aborted_fault: rolled back when rollback is
  /// on, else the engine stops serving.
  bool aborted_tuple_limit = false;
  bool aborted_fault = false;
  /// The aborted batch was undone: the fixpoint is back at its pre-batch
  /// state and the engine still serves lookups (re-apply the batch to
  /// retry).  False with an abort flag set = rollback disabled or a rank
  /// is truly gone; the engine stopped serving.
  bool rolled_back = false;
  std::string fault_what;
};

/// The receive side of ServingEngine::lookup_batch: the rows of every
/// rank's reply (one sorted row-codec run) per key of `uniq` (sorted,
/// unique, one length, at most `arity`), each key's rows sorted.  Throws
/// vmpi::FrameDecodeError on a malformed frame or a row out of key order
/// or for a key not requested.
std::vector<std::vector<Tuple>> decode_lookup_replies(const std::vector<vmpi::Bytes>& replies,
                                                      std::span<const Tuple> uniq,
                                                      std::size_t arity);

class ServingEngine {
 public:
  /// Validates the program shape and forces the engine config (see
  /// ServingConfig).  Serving requires: exactly one recursive stratum,
  /// all other strata after it and init-only (projections, rebuilt per
  /// batch); recursive joins with one base and one derived side, no
  /// antijoins, no kRefresh aggregates; every recursive head key a plain
  /// column of one body side (so retracted keys can find their premises).
  /// Throws ServingError otherwise.  Enables support counting on plain
  /// recursive targets.  Not collective by itself, but SPMD like Program.
  ServingEngine(vmpi::Comm& comm, core::Program& program, ServingConfig cfg);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// True when manifest_path names an existing manifest — start() will
  /// warm-start from it and the caller must NOT load facts.  Collective
  /// (rank 0 checks, result broadcast).
  [[nodiscard]] bool can_warm_start();

  /// Bring the fixpoint up: cold = full evaluation of the caller-loaded
  /// facts; warm = load the manifest, clear the load-time support counts,
  /// and run one superset re-derivation pass (delta == full), which
  /// revalidates the fixpoint and recounts every surviving derivation
  /// event.  Builds the reverse indexes.  Collective.
  core::RunResult start();

  [[nodiscard]] bool started() const { return ready_; }

  /// Apply one batch of base-relation mutations and re-converge.
  /// Collective; see the file comment for the phase structure.
  UpdateResult apply_updates(const UpdateBatch& batch);

  /// All stored rows of `relation` whose key starts with `prefix`
  /// (possibly empty — full scan), gathered to every rank and sorted:
  /// the result is identical everywhere.  Collective; legal only between
  /// batches.  Throws ServingError before start() or for an unknown
  /// relation name.
  [[nodiscard]] std::vector<Tuple> lookup(const std::string& relation,
                                          std::span<const value_t> prefix);

  /// Batched point lookups: result[i] holds lookup(relation, keys[i]).
  /// Keys must share one length.  Each rank probes the sorted unique keys
  /// through one monotone B-tree cursor and ships its matches as one
  /// sorted run in a single allgather.  Collective, same preconditions as
  /// lookup().
  [[nodiscard]] std::vector<std::vector<Tuple>> lookup_batch(
      const std::string& relation, std::span<const Tuple> keys);

  /// Batches applied since start().
  [[nodiscard]] std::uint64_t batches_applied() const { return batches_applied_; }

  /// The resident engine (its rank_profile() holds the last run only).
  [[nodiscard]] const core::Engine& engine() const { return engine_; }

  /// The serving-owned reverse indexes (see RevSpec), in creation order.
  [[nodiscard]] std::vector<const Relation*> reverse_indexes() const;

 private:
  /// How recovery locates the premises of a retracted key in one
  /// producing rule: the head key column is a plain column of one body
  /// side; premises are that side's rows with that column equal to the
  /// key.  kScanPrefix when the column is the side's single join column
  /// (direct B-tree prefix scan); otherwise a serving-owned reverse
  /// index over a base side.
  struct Recovery {
    enum class Via : std::uint8_t { kScanPrefix, kReverseIndex };
    Via via = Via::kScanPrefix;
    bool premise_is_b = false;  // JoinRule: which side carries the key column
    std::size_t col = 0;        // the premise side's column holding the key
    Relation* rev = nullptr;    // reverse index (kReverseIndex only)
  };

  /// A serving-owned reverse index over base relation `base`: a plain
  /// relation of rows (base_row[col], base_row...), keyed so "all base
  /// rows with column `col` equal to k" is one prefix scan.  Shared
  /// between rules that need the same (base, col).
  struct RevSpec {
    Relation* base = nullptr;
    std::size_t col = 0;
    Relation* rev = nullptr;
  };

  // This rank's contributions per base relation: (inserts, deletes).
  using GroupedBatch =
      std::unordered_map<Relation*,
                         std::pair<std::vector<const Tuple*>, std::vector<const Tuple*>>>;
  // Per-relation mutation lists keyed by the relation (owner-side rows).
  using RowsBy = std::unordered_map<Relation*, std::vector<Tuple>>;
  // Retracted keys per derived relation (owner-side, this batch).
  using KeysBy = std::unordered_map<Relation*, std::unordered_set<Tuple, storage::TupleHash>>;

  void classify_and_validate();

  /// Route `send[dest]` (flat rows of `arity` values) as sorted row-codec
  /// runs and return every received row, merged into one sorted run.
  /// Rides the faultable mailbox exchange, so serving's row traffic heals
  /// under the reliable channel (or, detect-only, a corrupt frame surfaces
  /// as a typed FrameDecodeError, never silent garbage).
  std::vector<value_t> exchange_flat(std::vector<std::vector<value_t>> send,
                                     std::size_t arity);

  /// Every relation a batch can mutate: the program's and the reverse
  /// indexes.
  [[nodiscard]] std::vector<Relation*> mutable_relations() const;

  /// Recovery from an aborted batch: after a fault, un-poison the world
  /// (Comm::fault_reset rendezvous; not needed for a tuple-limit abort,
  /// which every rank sees alike on a healthy world), then undo the batch
  /// in every relation.  Returns true when the engine is back at the
  /// pre-batch fixpoint and still serving; false (rollback disabled /
  /// rendezvous timed out) means the engine stops serving.
  bool roll_back(bool after_fault, UpdateResult& res);

  /// Validate the batch (base targets, row arities; ServingError
  /// otherwise) and group this rank's rows per base relation.  Local.
  [[nodiscard]] GroupedBatch group_batch(const UpdateBatch& batch) const;

  /// Phase 0: route the grouped batch to base owners, mutate base full
  /// versions and reverse indexes, record what actually changed.
  void apply_base(const GroupedBatch& byrel, RowsBy& deleted, RowsBy& inserted,
                  UpdateResult& res);

  /// One join hop, shared by the retraction wavefront, recovery and
  /// insert seeding: replicate the flat `probe` rows of `probe_rel` (one
  /// side of `jr`) to every rank holding the partner's bucket, join them
  /// there against the partner's full version (core::join_sorted_batch),
  /// and buffer each head row for its owner in `out` (per destination).
  /// Collective, even with no probes.
  void join_hop(const core::JoinRule& jr, const Relation& probe_rel,
                std::span<const value_t> probe, std::vector<std::vector<value_t>>& out);

  /// Phase 1: DRed over-deletion wavefront.  Returns when globally
  /// quiescent; fills `retracted` with the keys removed on this rank.
  void retract_wavefront(const RowsBy& deleted_base, KeysBy& retracted,
                         UpdateResult& res);

  /// Phase 2: re-derive the retracted keys from surviving facts; stages
  /// (does not materialize) the recovered candidates.
  void recover_retracted(const KeysBy& retracted, UpdateResult& res);

  /// Phase 3: stage the inserted facts' immediate consequences, skipping
  /// candidates for retracted keys (phase 2 already produced those).
  void seed_inserts(const RowsBy& inserted_base, const KeysBy& retracted,
                    UpdateResult& res);

  void build_reverse_indexes();
  [[nodiscard]] Relation* find_relation(const std::string& name) const;
  [[nodiscard]] bool is_base(const Relation* r) const;

  vmpi::Comm* comm_;
  core::Program* program_;
  ServingConfig cfg_;
  core::Engine engine_;
  bool ready_ = false;
  std::uint64_t batches_applied_ = 0;

  const core::Stratum* recursive_ = nullptr;  // the single recursive stratum
  std::vector<const core::Rule*> rec_rules_;  // its init + loop rules
  std::vector<Recovery> recovery_;            // parallel to rec_rules_
  std::vector<Relation*> base_;               // mutable via apply_updates
  std::vector<Relation*> rec_targets_;        // recursive-stratum targets
  std::vector<Relation*> proj_targets_;       // init-only strata targets (rebuilt)
  std::vector<RevSpec> revs_;                 // one per distinct (base, col)
  std::vector<std::unique_ptr<Relation>> rev_store_;  // owned reverse indexes
};

}  // namespace paralagg::serving
