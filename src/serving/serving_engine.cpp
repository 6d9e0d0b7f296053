#include "serving/serving_engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/expr.hpp"
#include "core/ra_op.hpp"
#include "core/row_codec.hpp"
#include "vmpi/fault.hpp"

namespace paralagg::serving {

namespace {

using core::Expr;

void append_row(std::vector<value_t>& buf, std::span<const value_t> row) {
  buf.insert(buf.end(), row.begin(), row.end());
}

Relation* target_of(const core::Rule& rule) {
  return std::visit([](const auto& r) { return r.out.target; }, rule);
}

template <typename Map>
std::span<const Tuple> rows_of(const Map& m, Relation* r) {
  const auto it = m.find(r);
  return it == m.end() ? std::span<const Tuple>{} : std::span<const Tuple>(it->second);
}

/// The engine settings serving's bookkeeping depends on, applied over the
/// caller's knobs (see ServingConfig::engine).
core::EngineConfig serving_engine_config(core::EngineConfig e) {
  e.router_preagg = false;                       // support counts need per-event staging
  e.exchange = core::ExchangeAlgorithm::kDense;  // the one exchange its fault legs cover
  e.balance.enabled = false;                     // owners must stay put mid-service
  e.skew.enabled = false;                        // retraction needs owner placement
  e.checkpoint_every = 0;                        // serving checkpoints at batch boundaries
  e.checkpoint_path.clear();
  return e;
}

/// Flatten tuples of one relation into row-major values.
std::vector<value_t> flat_rows(std::span<const Tuple> rows) {
  std::vector<value_t> flat;
  for (const Tuple& t : rows) append_row(flat, t.view());
  return flat;
}

/// Buffer the head of copy rule `c` over `row` for its owner, unless the
/// rule's filter rejects the row.
void emit_copy(const core::CopyRule& c, std::span<const value_t> row, Tuple& head,
               std::vector<std::vector<value_t>>& out) {
  core::RuleExecStats unused;
  if (core::copy_row(c, row, head, unused)) {
    append_row(out[static_cast<std::size_t>(c.out.target->owner_rank(head.view()))],
               head.view());
  }
}

}  // namespace

ServingEngine::ServingEngine(vmpi::Comm& comm, core::Program& program, ServingConfig cfg)
    : comm_(&comm),
      program_(&program),
      cfg_(std::move(cfg)),
      engine_(comm, serving_engine_config(cfg_.engine)) {
  program_->validate();
  classify_and_validate();
}

bool ServingEngine::is_base(const Relation* r) const {
  return std::find(base_.begin(), base_.end(), r) != base_.end();
}

Relation* ServingEngine::find_relation(const std::string& name) const {
  for (const auto& rel : program_->relations()) {
    if (rel->name() == name) return rel.get();
  }
  throw ServingError("unknown relation '" + name + "'");
}

void ServingEngine::classify_and_validate() {
  const auto& strata = program_->strata();
  if (strata.empty() || strata[0]->loop_rules.empty()) {
    throw ServingError(
        "serving needs a recursive first stratum (loop rules to maintain)");
  }
  if (!strata[0]->fixpoint) {
    throw ServingError("refresh (fixed-round) strata cannot be served incrementally");
  }
  for (std::size_t i = 1; i < strata.size(); ++i) {
    if (!strata[i]->loop_rules.empty()) {
      throw ServingError("serving supports exactly one recursive stratum (stratum " +
                         std::to_string(i) + " is also recursive)");
    }
  }
  recursive_ = strata[0].get();
  for (const auto& r : recursive_->init_rules) rec_rules_.push_back(&r);
  for (const auto& r : recursive_->loop_rules) rec_rules_.push_back(&r);

  // Derived = targeted by any rule anywhere; base = everything else.
  std::unordered_set<const Relation*> targeted;
  for (const auto& s : strata) {
    for (const auto* rules : {&s->init_rules, &s->loop_rules}) {
      for (const auto& r : *rules) targeted.insert(target_of(r));
    }
  }
  for (const auto& rel : program_->relations()) {
    if (!targeted.contains(rel.get())) base_.push_back(rel.get());
  }

  const auto push_unique = [](std::vector<Relation*>& v, Relation* r) {
    if (std::find(v.begin(), v.end(), r) == v.end()) v.push_back(r);
  };
  for (const core::Rule* r : rec_rules_) push_unique(rec_targets_, target_of(*r));
  for (std::size_t i = 1; i < strata.size(); ++i) {
    for (const auto& r : strata[i]->init_rules) {
      Relation* t = target_of(r);
      if (std::find(rec_targets_.begin(), rec_targets_.end(), t) != rec_targets_.end()) {
        throw ServingError("projection stratum rewrites maintained relation '" +
                           t->name() + "'");
      }
      push_unique(proj_targets_, t);
    }
  }

  // Per producing rule: how recovery will locate a retracted key's premises.
  for (const core::Rule* rp : rec_rules_) {
    Recovery rc;
    Relation* premise = nullptr;
    if (const auto* j = std::get_if<core::JoinRule>(rp)) {
      if (j->anti) throw ServingError("antijoin rules cannot be maintained incrementally");
      const bool ab = is_base(j->a), bb = is_base(j->b);
      if (ab == bb) {
        throw ServingError("recursive join over '" + j->a->name() + "'/'" +
                           j->b->name() + "' must pair one base and one derived side");
      }
      const Expr& key = j->out.cols[0];
      if (key.kind() == Expr::Kind::kColA) {
        rc.premise_is_b = false;
        premise = j->a;
      } else if (key.kind() == Expr::Kind::kColB) {
        rc.premise_is_b = true;
        premise = j->b;
      } else {
        throw ServingError("rule head key into '" + j->out.target->name() +
                           "' must be a plain body column");
      }
      rc.col = key.col_index();
    } else {
      const auto& c = std::get<core::CopyRule>(*rp);
      const Expr& key = c.out.cols[0];
      if (key.kind() != Expr::Kind::kColA) {
        throw ServingError("copy-rule head key into '" + c.out.target->name() +
                           "' must be a plain source column");
      }
      premise = c.src;
      rc.col = key.col_index();
    }
    Relation* target = target_of(*rp);
    if (target->aggregated() && target->config().agg_mode != core::AggMode::kLattice) {
      throw ServingError("refresh aggregate '" + target->name() +
                         "' cannot be served incrementally");
    }
    if (rc.col == 0 && premise->jcc() == 1) {
      rc.via = Recovery::Via::kScanPrefix;  // the premise tree's own prefix
    } else {
      if (!is_base(premise)) {
        throw ServingError("head key of '" + target->name() +
                           "' must be the derived side's leading join column or a "
                           "base-side column");
      }
      rc.via = Recovery::Via::kReverseIndex;
      Relation* rev = nullptr;
      for (const RevSpec& rs : revs_) {
        if (rs.base == premise && rs.col == rc.col) rev = rs.rev;
      }
      if (rev == nullptr) {
        core::RelationConfig rcfg;
        rcfg.name = premise->name() + "_rx" + std::to_string(rc.col);
        rcfg.arity = premise->arity() + 1;
        rcfg.jcc = 1;
        rev_store_.push_back(std::make_unique<Relation>(*comm_, std::move(rcfg)));
        rev = rev_store_.back().get();
        revs_.push_back(RevSpec{premise, rc.col, rev});
      }
      rc.rev = rev;
    }
    recovery_.push_back(rc);
  }

  // Exact event bookkeeping for plain recursive targets; aggregated ones
  // retract by value match instead (file comment).
  for (Relation* t : rec_targets_) {
    if (!t->aggregated()) t->enable_support_counts();
  }
}

std::vector<value_t> ServingEngine::exchange_flat(std::vector<std::vector<value_t>> send,
                                                  std::size_t arity) {
  std::vector<vmpi::Bytes> frames(send.size());
  for (std::size_t d = 0; d < send.size(); ++d) {
    if (send[d].empty()) continue;
    // Sorted, never folded: support counts need every derivation event.
    core::sort_rows(send[d], arity);
    core::put_row_group(frames[d], 0, send[d], arity);
    send[d] = std::vector<value_t>();  // `= {}` would keep the capacity
  }
  return core::merge_frame_runs(comm_->alltoallv_mailbox(std::move(frames)), arity,
                                [](std::span<const value_t> a, std::span<const value_t> b) {
                                  return std::lexicographical_compare_three_way(
                                      a.begin(), a.end(), b.begin(), b.end());
                                });
}

std::vector<Relation*> ServingEngine::mutable_relations() const {
  std::vector<Relation*> out;
  for (const auto& rel : program_->relations()) out.push_back(rel.get());
  for (const auto& rev : rev_store_) out.push_back(rev.get());
  return out;
}

std::vector<const Relation*> ServingEngine::reverse_indexes() const {
  std::vector<const Relation*> out;
  for (const auto& rev : rev_store_) out.push_back(rev.get());
  return out;
}

bool ServingEngine::roll_back(bool after_fault, UpdateResult& res) {
  if (!cfg_.rollback) return false;  // nothing was journaled
  const auto rels = mutable_relations();
  // Collective un-poisoning: every live rank parks in the reset
  // rendezvous (peers of a killed rank arrive once their watchdog fires
  // and their own abort unwinds to here).  A rank that never arrives
  // means real process death — the rendezvous times out, the world stays
  // poisoned, and this engine stops serving.
  if (after_fault && !comm_->fault_reset(cfg_.rollback_timeout_seconds)) {
    for (Relation* r : rels) r->commit_batch();  // no way back; stop journaling
    return false;
  }
  for (Relation* r : rels) r->undo_batch();
  res.rolled_back = true;
  return true;
}

bool ServingEngine::can_warm_start() {
  if (cfg_.manifest_path.empty()) return false;  // config: identical on all ranks
  std::uint8_t exists = 0;
  if (comm_->rank() == 0) {
    exists = std::filesystem::exists(cfg_.manifest_path) ? 1 : 0;
  }
  return comm_->bcast_value<std::uint8_t>(0, exists) != 0;
}

core::RunResult ServingEngine::start() {
  if (ready_) throw ServingError("start() called twice");
  core::RunResult rr;
  if (can_warm_start()) {
    core::load_manifest(*program_, cfg_.manifest_path);
    // load_manifest counts one event per key; the superset pass below
    // recounts every surviving derivation exactly once (a plain row enters
    // the delta exactly once, so each producing pair fires exactly once).
    // Clear first so plain-target counts stay exact across restarts.
    for (Relation* t : rec_targets_) t->clear_support_counts();
    rr = engine_.run_delta(*program_);
    rr.resumed = true;
  } else {
    rr = engine_.run(*program_);
  }
  if (rr.aborted_fault) return rr;
  build_reverse_indexes();
  // Base deltas are load_facts/manifest leftovers (delta == full); nothing
  // reads them — drop the duplicate before going resident.
  for (Relation* b : base_) b->tree(core::Version::kDelta).clear();
  ready_ = true;
  return rr;
}

void ServingEngine::build_reverse_indexes() {
  const auto n = static_cast<std::size_t>(comm_->size());
  for (const RevSpec& rs : revs_) {
    rs.rev->reset();
    std::vector<std::vector<value_t>> send(n);
    std::vector<value_t> rrow(rs.base->arity() + 1);
    std::as_const(rs.base->tree(core::Version::kFull))
        .for_each([&](std::span<const value_t> row) {
          rrow[0] = row[rs.col];
          std::copy(row.begin(), row.end(), rrow.begin() + 1);
          append_row(send[static_cast<std::size_t>(rs.rev->owner_rank(rrow))], rrow);
        });
    // Each reverse row extends a distinct base row, so the sorted run is
    // strictly increasing: no fold needed.
    const auto run = exchange_flat(std::move(send), rs.rev->arity());
    rs.rev->tree(core::Version::kFull).build_sorted(run);
  }
}

ServingEngine::GroupedBatch ServingEngine::group_batch(const UpdateBatch& batch) const {
  GroupedBatch byrel;
  for (const auto& rd : batch) {
    Relation* r = find_relation(rd.relation);
    if (!is_base(r)) {
      throw ServingError("updates must target base relations: '" + rd.relation +
                         "' is derived");
    }
    auto& [ins, del] = byrel[r];
    for (const Tuple& t : rd.inserts) {
      if (t.size() != r->arity()) {
        throw ServingError("arity mismatch in insert into '" + rd.relation + "'");
      }
      ins.push_back(&t);
    }
    for (const Tuple& t : rd.deletes) {
      if (t.size() != r->arity()) {
        throw ServingError("arity mismatch in delete from '" + rd.relation + "'");
      }
      del.push_back(&t);
    }
  }
  return byrel;
}

void ServingEngine::apply_base(const GroupedBatch& byrel, RowsBy& deleted, RowsBy& inserted,
                               UpdateResult& res) {
  const auto n = static_cast<std::size_t>(comm_->size());
  // Route to owners and mutate.  Deletes apply before inserts, so a row
  // both deleted and inserted in one batch nets to the insert.  The owner
  // records only what actually changed — duplicate contributions (or a
  // delete of an absent row) collapse here.
  for (Relation* b : base_) {
    const auto it = byrel.find(b);
    std::vector<std::vector<value_t>> del(n), ins(n);
    if (it != byrel.end()) {
      for (const Tuple* t : it->second.second) {
        append_row(del[static_cast<std::size_t>(b->owner_rank(t->view()))], t->view());
      }
      for (const Tuple* t : it->second.first) {
        append_row(ins[static_cast<std::size_t>(b->owner_rank(t->view()))], t->view());
      }
    }
    const std::size_t ar = b->arity();
    auto dflat = exchange_flat(std::move(del), ar);
    for (std::size_t off = 0; off < dflat.size(); off += ar) {
      const std::span<const value_t> row{dflat.data() + off, ar};
      if (!b->retract_key(row.first(b->indep_arity())).empty()) {
        deleted[b].emplace_back(row);
        ++res.base_deleted;
      } else {
        ++res.missing_deletes;
      }
    }
    auto iflat = exchange_flat(std::move(ins), ar);
    for (std::size_t off = 0; off < iflat.size(); off += ar) {
      const std::span<const value_t> row{iflat.data() + off, ar};
      if (b->insert_full(row)) {
        inserted[b].emplace_back(row);
        ++res.base_inserted;
      }
    }
  }

  // Mirror the actual changes into the reverse indexes.
  for (const RevSpec& rs : revs_) {
    std::vector<std::vector<value_t>> del(n), ins(n);
    std::vector<value_t> rrow(rs.base->arity() + 1);
    const auto pack = [&](std::span<const Tuple> rows,
                          std::vector<std::vector<value_t>>& out) {
      for (const Tuple& t : rows) {
        rrow[0] = t[rs.col];
        std::copy(t.view().begin(), t.view().end(), rrow.begin() + 1);
        append_row(out[static_cast<std::size_t>(rs.rev->owner_rank(rrow))], rrow);
      }
    };
    pack(rows_of(deleted, rs.base), del);
    pack(rows_of(inserted, rs.base), ins);
    const std::size_t ar = rs.rev->arity();
    auto dflat = exchange_flat(std::move(del), ar);
    for (std::size_t off = 0; off < dflat.size(); off += ar) {
      (void)rs.rev->retract_key(std::span<const value_t>{dflat.data() + off, ar});
    }
    auto iflat = exchange_flat(std::move(ins), ar);
    for (std::size_t off = 0; off < iflat.size(); off += ar) {
      rs.rev->insert_full(std::span<const value_t>{iflat.data() + off, ar});
    }
  }
}

void ServingEngine::join_hop(const core::JoinRule& jr, const Relation& probe_rel,
                             std::span<const value_t> probe,
                             std::vector<std::vector<value_t>>& out) {
  const bool probe_is_a = &probe_rel == jr.a;
  const Relation& partner = probe_is_a ? *jr.b : *jr.a;
  const std::size_t par = probe_rel.arity();
  std::vector<std::vector<value_t>> send(static_cast<std::size_t>(comm_->size()));
  std::vector<int> dests;
  for (std::size_t off = 0; off < probe.size(); off += par) {
    const auto row = probe.subspan(off, par);
    core::probe_dests(probe_rel, partner, row, dests);
    for (const int d : dests) append_row(send[static_cast<std::size_t>(d)], row);
  }
  const auto flat = exchange_flat(std::move(send), par);
  core::RuleExecStats unused;
  core::join_sorted_batch(flat, probe_is_a, std::as_const(partner.tree(core::Version::kFull)),
                          jr, unused, [&](std::span<const value_t> head) {
                            append_row(out[static_cast<std::size_t>(
                                           jr.out.target->owner_rank(head))],
                                       head);
                          });
}

void ServingEngine::retract_wavefront(const RowsBy& deleted_base, KeysBy& retracted,
                                      UpdateResult& res) {
  const auto n = static_cast<std::size_t>(comm_->size());
  // Round 1 probes are the deleted base facts; later rounds probe the
  // derived rows the previous round retracted (with their final values).
  RowsBy wave = deleted_base;
  while (true) {
    std::unordered_map<Relation*, std::vector<std::vector<value_t>>> cand;
    for (Relation* t : rec_targets_) cand[t].resize(n);

    Tuple head;
    for (const core::Rule* rule : rec_rules_) {
      auto& out = cand[target_of(*rule)];
      if (const auto* j = std::get_if<core::JoinRule>(rule)) {
        // At most one side has probes per round (round 1: the base side;
        // later: the derived side), but both hops always run — the probe
        // exchange is collective.
        join_hop(*j, *j->a, flat_rows(rows_of(wave, j->a)), out);
        join_hop(*j, *j->b, flat_rows(rows_of(wave, j->b)), out);
      } else {
        const auto& c = std::get<core::CopyRule>(*rule);
        for (const Tuple& p : rows_of(wave, c.src)) emit_copy(c, p.view(), head, out);
      }
    }

    RowsBy next;
    std::uint64_t round_retracted = 0;
    for (Relation* t : rec_targets_) {
      const std::size_t ar = t->arity(), indep = t->indep_arity();
      auto flat = exchange_flat(std::move(cand[t]), ar);
      for (std::size_t off = 0; off < flat.size(); off += ar) {
        const std::span<const value_t> row{flat.data() + off, ar};
        const auto key = row.first(indep);
        const auto stored = std::as_const(t->tree(core::Version::kFull)).find_key(key);
        if (stored.empty()) continue;  // already gone (earlier candidate)
        bool kill;
        if (t->aggregated()) {
          // Pre-mappable lattice: the stored aggregate equals this
          // invalidated derivation's value iff the best support ran
          // through the deleted fact (lattice ascent makes the final
          // premise value the best one the pair ever produced).  Equal →
          // over-delete and re-derive; different → a better support
          // survives, leave it.
          kill = std::equal(stored.begin() + static_cast<std::ptrdiff_t>(indep),
                            stored.end(),
                            row.begin() + static_cast<std::ptrdiff_t>(indep));
        } else {
          // Plain target: exact event counts; the key dies with its last
          // supporting derivation.  Count 0 means "no bookkeeping" (an
          // externally loaded fact) — never retract those on decrement.
          kill = t->support_of(key) > 0 && t->support_release(key, 1) == 0;
        }
        if (!kill) continue;
        Tuple removed = t->retract_key(key);
        retracted[t].insert(Tuple(key));
        next[t].push_back(std::move(removed));
        ++round_retracted;
      }
    }
    ++res.retraction_rounds;
    res.retracted += round_retracted;
    const auto total =
        comm_->allreduce<std::uint64_t>(round_retracted, vmpi::ReduceOp::kSum);
    if (total == 0) break;
    wave = std::move(next);
  }
}

void ServingEngine::recover_retracted(const KeysBy& retracted, UpdateResult& res) {
  (void)res;
  const auto n = static_cast<std::size_t>(comm_->size());
  for (std::size_t ri = 0; ri < rec_rules_.size(); ++ri) {
    const core::Rule& rule = *rec_rules_[ri];
    const Recovery& rc = recovery_[ri];
    Relation* target = target_of(rule);
    const auto* j = std::get_if<core::JoinRule>(&rule);
    Relation* premise =
        j ? (rc.premise_is_b ? j->b : j->a) : std::get<core::CopyRule>(rule).src;
    Relation* scan_rel = rc.via == Recovery::Via::kReverseIndex ? rc.rev : premise;

    // Hop 1: each retracted key's head column (deduped — two keys sharing
    // it would enumerate the same premises twice and double-count events),
    // shipped to whoever holds matching premises.
    std::vector<value_t> k0s;
    if (const auto it = retracted.find(target); it != retracted.end()) {
      for (const Tuple& k : it->second) k0s.push_back(k[0]);
    }
    std::sort(k0s.begin(), k0s.end());
    k0s.erase(std::unique(k0s.begin(), k0s.end()), k0s.end());
    std::vector<std::vector<value_t>> ksend(n);
    std::vector<int> dests;
    for (const value_t k0 : k0s) {
      const value_t one[1] = {k0};
      scan_rel->ranks_of_bucket(scan_rel->bucket_of(one), dests);
      for (const int d : dests) ksend[static_cast<std::size_t>(d)].push_back(k0);
    }
    // Dedupe arrivals too (they come merged, so sorted): distinct owners
    // may request the same column value.
    auto kset = exchange_flat(std::move(ksend), 1);
    kset.erase(std::unique(kset.begin(), kset.end()), kset.end());

    // Enumerate premises; join rules take one more hop to pair them with
    // the partner side.
    std::vector<std::vector<value_t>> out(n);
    std::vector<value_t> premises;
    Tuple head;
    const auto& stree = std::as_const(scan_rel->tree(core::Version::kFull));
    for (const value_t k0 : kset) {
      const value_t pfx[1] = {k0};
      stree.scan_prefix(pfx, [&](std::span<const value_t> srow) {
        const std::span<const value_t> prow =
            rc.via == Recovery::Via::kReverseIndex ? srow.subspan(1) : srow;
        if (j != nullptr) {
          append_row(premises, prow);
        } else {
          emit_copy(std::get<core::CopyRule>(rule), prow, head, out);
        }
      });
    }
    if (j != nullptr) join_hop(*j, *premise, premises, out);

    // Final hop: candidates to the target owner, staged ONLY for keys this
    // batch retracted — survivors keep their state, and the insert-seeding
    // pass (which skips retracted keys) covers everything else.
    const std::size_t tar = target->arity(), indep = target->indep_arity();
    auto cflat = exchange_flat(std::move(out), tar);
    const auto rit = retracted.find(target);
    for (std::size_t off = 0; off < cflat.size(); off += tar) {
      const std::span<const value_t> crow{cflat.data() + off, tar};
      if (rit != retracted.end() && rit->second.contains(Tuple(crow.first(indep)))) {
        target->stage(crow);
      }
    }
  }
}

void ServingEngine::seed_inserts(const RowsBy& inserted_base, const KeysBy& retracted,
                                 UpdateResult& res) {
  (void)res;
  const auto n = static_cast<std::size_t>(comm_->size());
  for (const core::Rule* rule : rec_rules_) {
    Relation* target = target_of(*rule);
    std::vector<std::vector<value_t>> out(n);
    if (const auto* jr = std::get_if<core::JoinRule>(rule)) {
      Relation* bside = is_base(jr->a) ? jr->a : jr->b;  // validated: exactly one
      join_hop(*jr, *bside, flat_rows(rows_of(inserted_base, bside)), out);
    } else {
      const auto& c = std::get<core::CopyRule>(*rule);
      Tuple head;
      for (const Tuple& p : rows_of(inserted_base, c.src)) emit_copy(c, p.view(), head, out);
    }
    const std::size_t tar = target->arity(), indep = target->indep_arity();
    auto cflat = exchange_flat(std::move(out), tar);
    const auto rit = retracted.find(target);
    for (std::size_t off = 0; off < cflat.size(); off += tar) {
      const std::span<const value_t> crow{cflat.data() + off, tar};
      // Retracted keys' candidates were produced (completely) by recovery;
      // staging them again here would double-count the event.
      if (rit != retracted.end() && rit->second.contains(Tuple(crow.first(indep)))) {
        continue;
      }
      target->stage(crow);
    }
  }
}

UpdateResult ServingEngine::apply_updates(const UpdateBatch& batch) {
  if (!ready_) throw ServingError("apply_updates before start()");
  UpdateResult res;
  // Validate before journaling: a malformed batch throws with nothing
  // changed and no batch open.
  const auto byrel = group_batch(batch);
  // Every mutation below is journaled in its relation's undo log, so an
  // aborted batch can restore the fixpoint instead of killing the engine.
  const auto journaled = cfg_.rollback ? mutable_relations() : std::vector<Relation*>{};
  for (Relation* r : journaled) r->begin_batch();
  auto stage_start = std::chrono::steady_clock::now();
  const auto lap = [&stage_start](double& stage) {
    const auto now = std::chrono::steady_clock::now();
    stage = std::chrono::duration<double>(now - stage_start).count();
    stage_start = now;
  };
  // Shared tail of every abort path: roll back or stop serving.
  const auto abort_batch = [&](bool after_fault) {
    if (!roll_back(after_fault, res)) ready_ = false;
    lap(res.seconds.commit);
    return res;
  };
  try {
    RowsBy deleted, inserted;
    apply_base(byrel, deleted, inserted, res);
    lap(res.seconds.base);

    KeysBy retracted;
    retract_wavefront(deleted, retracted, res);
    lap(res.seconds.wavefront);
    recover_retracted(retracted, res);
    lap(res.seconds.recovery);
    seed_inserts(inserted, retracted, res);
    lap(res.seconds.seed);

    // Fold the combined seed (recovered + newly derived) into full/delta.
    for (Relation* t : rec_targets_) res.tuples_derived += t->materialize().staged;
    // Projections are cheap full rebuilds over the evolved state.
    for (Relation* t : proj_targets_) t->reset();
    lap(res.seconds.fold);

    const auto run = engine_.run_delta(*program_);
    res.tail_iterations = run.total_iterations;
    lap(res.seconds.tail);
    if (run.aborted_fault || run.aborted_tuple_limit) {
      // The engine caught the fault internally (e.g. this rank is the
      // kill victim) — same degradation path as the catch blocks below.
      // A tail cut by the tuple limit stopped short of the fixpoint: it
      // is no answer to serve either.  Every rank sees the limit alike
      // (it is checked on an allreduced count), so no reset is needed.
      res.aborted_fault = run.aborted_fault;
      res.aborted_tuple_limit = run.aborted_tuple_limit;
      res.fault_what = run.fault_what;
      return abort_batch(run.aborted_fault);
    }
    for (const auto& s : run.strata) res.tuples_derived += s.tuples_generated;

    // Recovered = retracted keys present in the final fixpoint (directly
    // re-derived or transitively restored by the tail).
    for (Relation* t : rec_targets_) {
      const auto it = retracted.find(t);
      if (it == retracted.end()) continue;
      const auto& full = std::as_const(t->tree(core::Version::kFull));
      for (const Tuple& k : it->second) {
        if (full.contains_key(k.view())) ++res.recovered;
      }
    }

    // Fold the owner-local counters in one reduction so the result is
    // identical everywhere.
    const std::array counters{&res.base_inserted, &res.base_deleted, &res.missing_deletes,
                              &res.retracted,     &res.recovered,    &res.tuples_derived};
    std::array<std::uint64_t, counters.size()> sums{};
    for (std::size_t i = 0; i < counters.size(); ++i) sums[i] = *counters[i];
    comm_->allreduce_each(std::span<std::uint64_t>(sums), vmpi::ReduceOp::kSum);
    for (std::size_t i = 0; i < counters.size(); ++i) *counters[i] = sums[i];

    ++batches_applied_;
    if (cfg_.checkpoint_every_batches > 0 && !cfg_.manifest_path.empty() &&
        batches_applied_ % cfg_.checkpoint_every_batches == 0) {
      // At a batch boundary the fixpoint is complete; header (0, 0) makes
      // the manifest double as an Engine::resume superset restart point.
      core::write_manifest(*program_, cfg_.manifest_path, core::ManifestHeader{0, 0, 0});
      res.checkpointed = true;
    }
    lap(res.seconds.summary);
  } catch (const vmpi::FaultError& e) {
    // Same contract as Engine::run_from: poison the world (idempotent) so
    // peers unwind — then try to roll the batch back and keep serving.
    // Only when rollback is off (or a rank is truly gone) is the engine
    // no longer serviceable: restart and warm-start from the manifest.
    comm_->world().fault_abort();
    res.aborted_fault = true;
    res.fault_what = e.what();
    return abort_batch(true);
  } catch (const vmpi::WorldAborted& e) {
    // A peer already poisoned the world (its fault fired first); unwind
    // to the same aborted result.
    res.aborted_fault = true;
    res.fault_what = e.what();
    return abort_batch(true);
  }
  for (Relation* r : journaled) {
    res.undo_entries += r->undo_entries();
    r->commit_batch();
  }
  lap(res.seconds.commit);
  return res;
}

std::vector<Tuple> ServingEngine::lookup(const std::string& relation,
                                         std::span<const value_t> prefix) {
  const Tuple key(prefix);
  return std::move(lookup_batch(relation, std::span<const Tuple>(&key, 1)).front());
}

std::vector<std::vector<Tuple>> ServingEngine::lookup_batch(const std::string& relation,
                                                            std::span<const Tuple> keys) {
  if (!ready_) {
    throw ServingError("lookup in '" + relation +
                       "' before start(): bring the fixpoint up first");
  }
  Relation* r = find_relation(relation);
  const auto& tree = std::as_const(r->tree(core::Version::kFull));
  for (const Tuple& k : keys) {
    if (k.size() > tree.key_arity()) {
      throw ServingError("lookup key longer than the key of '" + relation + "'");
    }
    if (k.size() != keys.front().size()) {
      // Mixed lengths would break the monotone single-pass below: a longer
      // key can sort after a shorter prefix it is contained in.
      throw ServingError("lookup_batch keys must share one length");
    }
  }

  // One monotone cursor pass over the sorted unique keys: consecutive
  // seeks resume from the current leaf (storage/btree.hpp).  Equal-length
  // keys match disjoint, increasing row ranges, so the matches form one
  // sorted run.
  std::vector<Tuple> uniq(keys.begin(), keys.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  const std::size_t ar = r->arity();
  std::vector<value_t> mine;
  auto c = tree.cursor();
  for (const Tuple& k : uniq) {
    for (c.seek(k.view()); c.valid() && c.matches(k.view()); c.next()) {
      append_row(mine, c.row());
    }
  }
  vmpi::Bytes frame;
  if (!mine.empty()) core::put_row_group(frame, 0, mine, ar);
  auto per_uniq = decode_lookup_replies(comm_->allgatherv(frame), uniq, ar);

  // The last request for a key takes its rows; earlier repeats copy them.
  std::vector<std::vector<Tuple>> out(keys.size());
  std::vector<std::size_t> taken_by(uniq.size(), keys.size());
  for (std::size_t i = keys.size(); i-- > 0;) {
    const auto u = static_cast<std::size_t>(
        std::lower_bound(uniq.begin(), uniq.end(), keys[i]) - uniq.begin());
    out[i] = taken_by[u] == keys.size() ? std::move(per_uniq[u]) : out[taken_by[u]];
    taken_by[u] = i;
  }
  return out;
}

std::vector<std::vector<Tuple>> decode_lookup_replies(const std::vector<vmpi::Bytes>& replies,
                                                      std::span<const Tuple> uniq,
                                                      std::size_t arity) {
  const std::size_t klen = uniq.empty() ? 0 : uniq.front().size();
  // Decode the replies into one flat run, noting each row's key, so every
  // key's rows are then allocated once, at their final size.
  std::vector<value_t> flat;
  std::vector<std::size_t> key_of, count(uniq.size(), 0);
  for (const auto& reply : replies) {
    const std::size_t first = flat.size();
    core::append_frame_rows(reply, arity, flat);
    std::size_t k = 0;  // forward only: a reply is one run in key order
    for (std::size_t off = first; off < flat.size(); off += arity) {
      const auto key = std::span<const value_t>(flat).subspan(off, klen);
      while (k < uniq.size() && std::ranges::lexicographical_compare(uniq[k].view(), key)) ++k;
      if (k == uniq.size() || std::ranges::lexicographical_compare(key, uniq[k].view())) {
        throw vmpi::FrameDecodeError(
            "serving: lookup reply row out of key order or for a key not requested");
      }
      key_of.push_back(k);
      ++count[k];
    }
  }
  std::vector<std::vector<Tuple>> per_key(uniq.size());
  for (std::size_t k = 0; k < uniq.size(); ++k) per_key[k].reserve(count[k]);
  for (std::size_t r = 0; r < key_of.size(); ++r) {
    per_key[key_of[r]].emplace_back(std::span<const value_t>(flat).subspan(r * arity, arity));
  }
  // One reply's rows for a key are sorted; rows from several (a
  // sub-bucketed relation) may need a sort.
  for (auto& rows : per_key) {
    if (!std::is_sorted(rows.begin(), rows.end())) std::sort(rows.begin(), rows.end());
  }
  return per_key;
}

}  // namespace paralagg::serving
