#include "core/relation.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/row_codec.hpp"
#include "vmpi/crc32.hpp"

namespace paralagg::core {

Relation::Relation(vmpi::Comm& comm, RelationConfig cfg)
    : comm_(&comm),
      cfg_(validated(std::move(cfg))),
      num_buckets_(static_cast<std::uint32_t>(comm.size())),
      sub_buckets_(cfg_.sub_buckets),
      full_(cfg_.arity, cfg_.arity - cfg_.dep_arity),
      delta_(cfg_.arity, cfg_.arity - cfg_.dep_arity) {
  // A relation with no non-join independent columns has nothing for H2 to
  // hash; sub-bucketing cannot apply (all tuples of a bucket would land in
  // sub-bucket 0 anyway).
  if (effective_sub_cols() == 0) sub_buckets_ = 1;
}

RelationConfig Relation::validated(RelationConfig cfg) {
  if (cfg.arity == 0) throw std::invalid_argument(cfg.name + ": arity must be positive");
  if (cfg.jcc == 0 || cfg.jcc > cfg.arity) {
    throw std::invalid_argument(cfg.name + ": jcc out of range");
  }
  if (cfg.dep_arity >= cfg.arity) {
    throw std::invalid_argument(cfg.name + ": at least one independent column required");
  }
  // The paper's restriction (§III-A): aggregated columns are never joined
  // upon within a fixed point.  Structurally: join columns must lie in the
  // independent prefix.
  if (cfg.jcc > cfg.arity - cfg.dep_arity) {
    throw std::invalid_argument(cfg.name +
                                ": join columns must not include aggregated columns");
  }
  if (cfg.dep_arity > 0) {
    if (!cfg.aggregator) {
      throw std::invalid_argument(cfg.name + ": aggregated relation needs an aggregator");
    }
    if (cfg.aggregator->dep_arity() != cfg.dep_arity) {
      throw std::invalid_argument(cfg.name + ": aggregator dep_arity mismatch");
    }
  }
  if (cfg.sub_buckets < 1) throw std::invalid_argument(cfg.name + ": sub_buckets < 1");
  return cfg;
}

std::uint32_t Relation::bucket_of(std::span<const value_t> tuple) const {
  return static_cast<std::uint32_t>(
      storage::hash_columns(tuple.subspan(0, cfg_.jcc), storage::kBucketSeed) % num_buckets_);
}

std::uint32_t Relation::sub_bucket_of(std::span<const value_t> tuple) const {
  return sub_bucket_for(tuple, sub_buckets_);
}

int Relation::rank_of(std::uint32_t bucket, std::uint32_t sub) const {
  return rank_for(bucket, sub, sub_buckets_);
}

std::uint32_t Relation::sub_bucket_for(std::span<const value_t> tuple,
                                       int sub_buckets) const {
  if (sub_buckets == 1) return 0;
  const auto cols = tuple.subspan(cfg_.jcc, effective_sub_cols());
  return static_cast<std::uint32_t>(storage::hash_columns(cols, storage::kSubBucketSeed) %
                                    static_cast<std::uint64_t>(sub_buckets));
}

int Relation::rank_for(std::uint32_t bucket, std::uint32_t sub, int sub_buckets) const {
  const auto n = static_cast<std::uint64_t>(comm_->size());
  return static_cast<int>((static_cast<std::uint64_t>(bucket) *
                               static_cast<std::uint64_t>(sub_buckets) +
                           sub) %
                          n);
}

int Relation::owner_rank(std::span<const value_t> tuple) const {
  return rank_of(bucket_of(tuple), sub_bucket_of(tuple));
}

int Relation::route_rank(std::span<const value_t> tuple) const {
  if (key_is_hot(tuple)) {
    // Hot keys spread by H2 over the full rank range: rank_for with
    // sub_buckets == nranks collapses to the sub-bucket index itself, and
    // dependent columns stay out of H2, so equal-key folds still collide.
    return static_cast<int>(sub_bucket_for(tuple, comm_->size()));
  }
  return owner_rank(tuple);
}

std::uint64_t Relation::adopt_hot_keys(std::vector<Tuple> keys) {
  assert(staged_count() == 0 && "hot-set switches must run between iterations");
  assert(!journaling_ && "hot-set switches are not journaled");
  if (effective_sub_cols() == 0) return 0;  // H2 has nothing to spread by

  // Only keys whose hotness *changed* move; a key hot before and after
  // keeps its placement because the spread rank ignores the hot set.
  std::vector<Tuple> changed;
  for (const auto& k : keys) {
    if (hot_set_.count(k) == 0) changed.push_back(k);
  }
  for (const auto& k : hot_keys_) {
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) changed.push_back(k);
  }

  hot_keys_ = std::move(keys);
  hot_set_.clear();
  for (const auto& k : hot_keys_) hot_set_.insert(k);

  const auto n = static_cast<std::size_t>(comm_->size());
  const auto me = comm_->rank();
  std::uint64_t moved = 0;
  for (const Version v : {Version::kFull, Version::kDelta}) {
    std::vector<vmpi::BufferWriter> outgoing(n);
    std::vector<Tuple> moving;
    for (const auto& key : changed) {
      tree(v).scan_prefix(key.view(), [&](std::span<const value_t> t) {
        const int dst = route_rank(t);
        if (dst == me) return;  // already in place under the new layout
        outgoing[static_cast<std::size_t>(dst)].put_span(t);
        moving.emplace_back(t);
      });
    }
    for (const auto& t : moving) tree(v).erase_key(t.view().subspan(0, indep_arity()));
    std::vector<vmpi::Bytes> send(n);
    for (std::size_t d = 0; d < n; ++d) {
      if (d != static_cast<std::size_t>(me)) moved += outgoing[d].size();
      send[d] = outgoing[d].take();
    }
    auto got = comm_->alltoallv(std::move(send));
    for (const auto& buf : got) {
      vmpi::TypedReader<value_t> r(buf);
      while (!r.done()) tree(v).insert(r.take_span(cfg_.arity));
    }
  }
  return moved / (cfg_.arity * sizeof(value_t));
}

void Relation::ranks_of_bucket(std::uint32_t bucket, std::vector<int>& out) const {
  out.clear();
  for (int s = 0; s < sub_buckets_; ++s) {
    const int r = rank_of(bucket, static_cast<std::uint32_t>(s));
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
}

void Relation::stage(std::span<const value_t> tuple) {
  assert(tuple.size() == cfg_.arity);
  assert(route_rank(tuple) == comm_->rank() && "tuple staged on the wrong rank");
  if (support_counts_) {
    // Count the derivation event before any same-iteration collapse below.
    journal(tuple.first(indep_arity()));
    ++support_[Tuple(tuple.subspan(0, indep_arity()))];
  }
  if (!aggregated()) {
    staged_set_.insert(Tuple(tuple));
    return;
  }
  // Local aggregation, step one: collapse within-iteration duplicates of a
  // key before they reach the B-tree.
  Tuple key(tuple.subspan(0, indep_arity()));
  const auto dep = tuple.subspan(indep_arity(), cfg_.dep_arity);
  auto [it, inserted] = staged_agg_.try_emplace(std::move(key), Tuple(dep));
  if (!inserted) {
    Tuple merged = it->second;  // copy sized dep_arity
    cfg_.aggregator->partial_agg(it->second.view(), dep, merged.mutable_view());
    it->second = std::move(merged);
  }
}

void Relation::reserve_staging(std::size_t extra) {
  if (aggregated()) {
    staged_agg_.reserve(staged_agg_.size() + extra);
  } else {
    staged_set_.reserve(staged_set_.size() + extra);
  }
}

void Relation::stage_rows(std::span<const value_t> rows) {
  assert(rows.size() % cfg_.arity == 0 && "ragged bulk staging batch");
  reserve_staging(rows.size() / cfg_.arity);
  for (std::size_t i = 0; i < rows.size(); i += cfg_.arity) {
    stage(rows.subspan(i, cfg_.arity));
  }
}

bool Relation::ascend(std::span<const value_t> cur_dep, std::span<const value_t> dep,
                      std::span<value_t> out) const {
  cfg_.aggregator->partial_agg(cur_dep, dep, out);
  if (std::equal(out.begin(), out.end(), cur_dep.begin(), cur_dep.end())) return false;
  // Lattice law: cur ⊔ x must sit above cur.  A violating aggregator would
  // break termination, so catch it in debug builds.
  assert(cfg_.aggregator->partial_cmp(cur_dep, out) == PartialOrder::kLess);
  return true;
}

MaterializeResult Relation::materialize() {
  MaterializeResult res;
  const std::size_t ar = cfg_.arity;
  std::vector<value_t> fresh;  // the next delta, one flat row after another

  if (!aggregated()) {
    res.staged = staged_set_.size();
    for (const auto& t : staged_set_) {
      journal(t.view());
      if (full_.insert(t)) {
        fresh.insert(fresh.end(), t.view().begin(), t.view().end());
        ++res.inserted;
      } else {
        ++res.rejected;
      }
    }
    staged_set_.clear();
  } else if (cfg_.agg_mode == AggMode::kRefresh) {
    // Jacobi-style replacement: the staged aggregates *are* the next state,
    // and there is no delta.
    res.staged = staged_agg_.size();
    std::vector<value_t> rows;
    rows.reserve(staged_agg_.size() * ar);
    for (const auto& [key, dep] : staged_agg_) {
      rows.insert(rows.end(), key.view().begin(), key.view().end());
      rows.insert(rows.end(), dep.view().begin(), dep.view().end());
    }
    res.inserted = res.staged;
    staged_agg_.clear();
    full_.sort_run(rows);
    set_aside(Version::kFull);
    full_.build_sorted(rows);
  } else {
    // Lattice mode: fused dedup/aggregation (paper §IV-A).
    res.staged = staged_agg_.size();
    std::vector<value_t> merged(cfg_.dep_arity);
    for (const auto& [key, dep] : staged_agg_) {
      const std::span<value_t> cur = full_.find_key(key.view());
      if (cur.empty()) {
        journal(key.view());
        fresh.insert(fresh.end(), key.view().begin(), key.view().end());
        fresh.insert(fresh.end(), dep.view().begin(), dep.view().end());
        full_.insert(std::span<const value_t>(fresh).last(ar));
        ++res.inserted;
        continue;
      }
      const auto cur_dep = cur.subspan(indep_arity(), cfg_.dep_arity);
      if (!ascend(cur_dep, dep.view(), merged)) {
        ++res.rejected;  // no new information: never enters delta, never moves
        continue;
      }
      // In-place payload rewrite through the mutable find_key span; the key
      // columns stay untouched so the tree stays ordered.  The row is copied
      // out now: the next full_.insert may move it.
      journal(key.view());
      std::copy(merged.begin(), merged.end(), cur_dep.begin());
      fresh.insert(fresh.end(), cur.begin(), cur.end());
      ++res.updated;
    }
    staged_agg_.clear();
  }
  delta_.sort_run(fresh);
  set_aside(Version::kDelta);
  delta_.build_sorted(fresh);
  res.delta_size = delta_.size();
  return res;
}

void Relation::reset() {
  set_aside(Version::kFull);
  set_aside(Version::kDelta);
  set_aside_support();
  full_.clear();
  delta_.clear();
  staged_set_.clear();
  staged_agg_.clear();
  support_.clear();
  hot_keys_.clear();
  hot_set_.clear();
}

void Relation::set_aside(Version v) {
  auto& aside = v == Version::kFull ? aside_full_ : aside_delta_;
  if (!journaling_ || aside) return;
  aside.emplace(cfg_.arity, indep_arity());
  std::swap(*aside, tree(v));
}

void Relation::set_aside_support() {
  if (!journaling_ || aside_support_) return;
  aside_support_.emplace();
  std::swap(*aside_support_, support_);
}

void Relation::journal(std::span<const value_t> key) {
  if (!journaling_) return;
  std::uint8_t want = 0;
  if (!aside_full_) want |= UndoEntry::kFull;
  if (!aside_delta_) want |= UndoEntry::kDelta;
  if (!aside_support_) want |= UndoEntry::kSupport;
  if (want == 0) return;  // every container is aside: undo restores them whole
  if (!touched_.emplace(key).second) return;  // pre-batch image already logged
  UndoEntry e;
  e.key = Tuple(key);
  e.logged = want;
  if ((want & UndoEntry::kFull) != 0) e.full = Tuple(std::as_const(full_).find_key(key));
  if ((want & UndoEntry::kDelta) != 0) e.delta = Tuple(std::as_const(delta_).find_key(key));
  if ((want & UndoEntry::kSupport) != 0) {
    if (const auto it = support_.find(e.key); it != support_.end()) e.support = it->second;
  }
  undo_.push_back(std::move(e));
}

void Relation::begin_batch() {
  assert(!journaling_ && staged_count() == 0 && "batches begin between iterations");
  journaling_ = true;
}

void Relation::commit_batch() {
  journaling_ = false;
  // Fresh containers, not clear(): a rare large batch must not leave its
  // bucket array behind for every later batch to sweep.
  undo_ = decltype(undo_)();
  touched_ = decltype(touched_)();
  aside_full_.reset();
  aside_delta_.reset();
  aside_support_.reset();
}

void Relation::undo_batch() {
  assert(journaling_);
  staged_set_.clear();
  staged_agg_.clear();
  if (aside_full_) full_ = std::move(*aside_full_);
  if (aside_delta_) delta_ = std::move(*aside_delta_);
  if (aside_support_) support_ = std::move(*aside_support_);
  // Restore one tree row to its pre-batch image (empty = absent).
  const auto put_back = [](storage::TupleBTree& t, const UndoEntry& e, const Tuple& pre) {
    if (pre.empty()) {
      t.erase_key(e.key.view());
      return;
    }
    const auto cur = t.find_key(e.key.view());
    if (cur.empty()) {
      t.insert(pre.view());
    } else {
      std::copy(pre.view().begin(), pre.view().end(), cur.begin());
    }
  };
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const UndoEntry& e = *it;
    if ((e.logged & UndoEntry::kFull) != 0) put_back(full_, e, e.full);
    if ((e.logged & UndoEntry::kDelta) != 0) put_back(delta_, e, e.delta);
    if ((e.logged & UndoEntry::kSupport) != 0) {
      if (e.support) {
        support_[e.key] = *e.support;
      } else {
        support_.erase(e.key);
      }
    }
  }
  commit_batch();  // the log is spent
}

std::uint64_t Relation::support_of(std::span<const value_t> key) const {
  assert(key.size() == indep_arity());
  const auto it = support_.find(Tuple(key));
  return it == support_.end() ? 0 : it->second;
}

std::uint64_t Relation::support_release(std::span<const value_t> key, std::uint64_t n) {
  assert(key.size() == indep_arity());
  const auto it = support_.find(Tuple(key));
  if (it == support_.end()) return 0;
  journal(key);
  it->second = it->second > n ? it->second - n : 0;
  return it->second;
}

Tuple Relation::retract_key(std::span<const value_t> key) {
  assert(key.size() == indep_arity());
  Tuple removed;
  const auto stored = std::as_const(full_).find_key(key);
  if (stored.empty()) return removed;
  removed = Tuple(stored);
  journal(key);
  full_.erase_key(key);
  delta_.erase_key(key);  // a same-batch re-derivation may have put it there
  support_.erase(Tuple(key));
  return removed;
}

bool Relation::insert_full(std::span<const value_t> row) {
  assert(row.size() == cfg_.arity);
  const auto key = row.first(indep_arity());
  if (std::as_const(full_).contains_key(key)) return false;
  journal(key);
  return full_.insert(row);
}

namespace {

/// The rows of every raw exchange buffer, concatenated in source-rank
/// order (the balancer's reshuffle ships plain rows: its fan-out planner
/// prices a move at arity words per row).
std::vector<value_t> concat_rows(const std::vector<vmpi::Bytes>& bufs) {
  std::size_t total = 0;
  for (const auto& buf : bufs) total += buf.size() / sizeof(value_t);
  std::vector<value_t> rows;
  rows.reserve(total);
  for (const auto& buf : bufs) {
    vmpi::TypedReader<value_t> r(buf);
    const auto vals = r.take_span(r.remaining());
    rows.insert(rows.end(), vals.begin(), vals.end());
  }
  return rows;
}

/// Merge every source's sorted run into one key-sorted run, equal keys in
/// source-rank order.  The frames decode row by row straight into the
/// merge, so the merged run (sized from the group headers) is the only
/// decoded copy.  A heap of the sources' heads costs about 2 log2(sources)
/// comparisons per row, each charged to `tree`.
std::vector<value_t> merge_received_runs(const storage::TupleBTree& tree, std::size_t arity,
                                         const std::vector<vmpi::Bytes>& frames) {
  std::size_t total = 0;
  for (const auto& frame : frames) total += frame_rows_hint(frame, arity) * arity;
  std::vector<value_t> run;
  run.reserve(total);
  std::vector<FrameRowCursor> heads;
  std::vector<std::size_t> heap;  // indices into heads, smallest head on top
  for (const auto& frame : frames) {
    heads.emplace_back(frame, arity);
    if (heads.back().valid()) heap.push_back(heads.size() - 1);
  }
  // "Later than": a larger key, or an equal key from a higher rank.
  const auto later = [&](std::size_t x, std::size_t y) {
    const auto ord = tree.compare_keys(heads[x].row(), heads[y].row());
    return ord > 0 || (ord == 0 && x > y);
  };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    FrameRowCursor& head = heads[heap.back()];
    run.insert(run.end(), head.row().begin(), head.row().end());
    head.next();
    if (head.valid()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return run;
}

}  // namespace

void Relation::load_facts(std::span<const Tuple> slice) {
  assert(staged_count() == 0 && "facts load between iterations");
  assert(!journaling_ && "fact loads are not journaled");
  const auto n = static_cast<std::size_t>(comm_->size());
  std::vector<std::vector<value_t>> outgoing(n);
  for (const auto& t : slice) {
    assert(t.size() == cfg_.arity);
    auto& rows = outgoing[static_cast<std::size_t>(route_rank(t.view()))];
    rows.insert(rows.end(), t.view().begin(), t.view().end());
  }
  std::vector<vmpi::Bytes> send(n);
  for (std::size_t d = 0; d < n; ++d) {
    if (outgoing[d].empty()) continue;
    // Whole-row order is key order with equal keys adjacent, which is all
    // the merge and fold need (the fold is commutative).
    sort_rows(outgoing[d], cfg_.arity);
    put_row_group(send[d], 0, outgoing[d], cfg_.arity);
    outgoing[d] = std::vector<value_t>();  // `= {}` would keep the capacity
  }
  auto run = merge_received_runs(full_, cfg_.arity, comm_->alltoallv(std::move(send)));

  fold_sorted_run(run);
  if (aggregated() && cfg_.agg_mode == AggMode::kRefresh) {
    full_.build_sorted(run);  // the loaded aggregates replace the state
    delta_.clear();
  } else if (full_.empty()) {
    full_.build_sorted(run);
    delta_.build_sorted(run);
  } else {
    merge_into_full(run);
  }
}

void Relation::fold_sorted_run(std::vector<value_t>& run) {
  const std::size_t ar = cfg_.arity;
  const std::size_t indep = indep_arity();
  std::vector<value_t> merged(cfg_.dep_arity);
  std::size_t out = 0;  // the folded prefix of `run`, in values
  for (std::size_t i = 0; i < run.size();) {
    // Group heads move down to `out`; that never overlaps a later row.
    std::copy_n(run.begin() + static_cast<std::ptrdiff_t>(i), ar,
                run.begin() + static_cast<std::ptrdiff_t>(out));
    const std::span<value_t> head(run.data() + out, ar);
    std::size_t j = i + ar;
    for (; j < run.size(); j += ar) {
      const std::span<const value_t> row(run.data() + j, ar);
      if (full_.compare_keys(head, row) != 0) break;
      if (aggregated()) {
        cfg_.aggregator->partial_agg(head.subspan(indep), row.subspan(indep), merged);
        std::copy(merged.begin(), merged.end(),
                  head.begin() + static_cast<std::ptrdiff_t>(indep));
      }
    }
    if (support_counts_) support_[Tuple(head.first(indep))] += (j - i) / ar;
    out += ar;
    i = j;
  }
  run.resize(out);
}

void Relation::merge_into_full(std::span<const value_t> run) {
  const std::size_t ar = cfg_.arity;
  const std::size_t indep = indep_arity();
  std::vector<value_t> next_full, fresh;
  next_full.reserve(full_.size() * ar + run.size());
  std::vector<value_t> merged(cfg_.dep_arity);
  const auto append = [](std::vector<value_t>& to, std::span<const value_t> row) {
    to.insert(to.end(), row.begin(), row.end());
  };
  auto c = full_.cursor();
  c.seek_first();
  std::size_t i = 0;
  while (c.valid() || i < run.size()) {
    const auto ord = !c.valid()          ? std::strong_ordering::greater
                     : i == run.size() ? std::strong_ordering::less
                                       : full_.compare_keys(c.row(), run.subspan(i, ar));
    if (ord < 0) {  // a key only full_ holds
      append(next_full, c.row());
      c.next();
      continue;
    }
    const auto row = run.subspan(i, ar);
    i += ar;
    if (ord > 0) {  // a new key
      append(next_full, row);
      append(fresh, row);
      continue;
    }
    if (aggregated() && ascend(c.row().subspan(indep), row.subspan(indep), merged)) {
      append(fresh, row.first(indep));
      append(fresh, merged);
      append(next_full, std::span<const value_t>(fresh).last(ar));
    } else {
      append(next_full, c.row());  // no new information
    }
    c.next();
  }
  full_.build_sorted(next_full);
  delta_.build_sorted(fresh);
}

std::uint64_t Relation::global_size(Version v) {
  return comm_->allreduce<std::uint64_t>(local_size(v), vmpi::ReduceOp::kSum);
}

std::vector<value_t> Relation::gather_full(int root) {
  // The tree walk is in key order: one sorted run per rank for the codec.
  std::vector<value_t> mine;
  mine.reserve(full_.size() * cfg_.arity);
  full_.for_each([&](std::span<const value_t> t) { mine.insert(mine.end(), t.begin(), t.end()); });
  vmpi::Bytes frame;
  if (!mine.empty()) put_row_group(frame, 0, mine, cfg_.arity);
  mine = std::vector<value_t>();
  const auto all = comm_->gatherv(root, frame);
  return comm_->rank() == root ? decode_frames(all, cfg_.arity) : std::vector<value_t>{};
}

std::vector<Tuple> Relation::gather_to_root(int root) {
  const auto rows = gather_full(root);
  std::vector<Tuple> out;
  out.reserve(rows.size() / cfg_.arity);
  for (std::size_t i = 0; i < rows.size(); i += cfg_.arity) {
    out.emplace_back(std::span<const value_t>(rows).subspan(i, cfg_.arity));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Relation::reshuffle_to_sub_buckets(int new_sub_buckets,
                                                 std::uint64_t* cross_bytes) {
  assert(new_sub_buckets >= 1);
  assert(!journaling_ && "reshuffles are not journaled");
  if (cross_bytes != nullptr) *cross_bytes = 0;
  if (effective_sub_cols() == 0) new_sub_buckets = 1;
  const int old_sub = sub_buckets_;
  sub_buckets_ = new_sub_buckets;
  if (old_sub == new_sub_buckets) return 0;

  const auto n = static_cast<std::size_t>(comm_->size());
  const auto me = comm_->rank();
  const auto& topo = comm_->topology();
  std::uint64_t moved_bytes = 0;

  // Re-route both versions under the new mapping.  Delta must survive a
  // mid-fixpoint rebalance, so it travels tagged separately from full.
  for (const Version v : {Version::kFull, Version::kDelta}) {
    std::vector<vmpi::BufferWriter> outgoing(n);
    // route_rank, not owner_rank: hot rows keep their H2 spread placement
    // (independent of sub_buckets_), so a rebalance never disturbs them.
    tree(v).for_each([&](std::span<const value_t> t) {
      outgoing[static_cast<std::size_t>(route_rank(t))].put_span(t);
    });
    std::vector<vmpi::Bytes> send(n);
    for (std::size_t d = 0; d < n; ++d) {
      if (d != static_cast<std::size_t>(me)) {
        moved_bytes += outgoing[d].size();
        if (cross_bytes != nullptr && !topo.same_node(me, static_cast<int>(d))) {
          *cross_bytes += outgoing[d].size();
        }
      }
      send[d] = outgoing[d].take();
    }
    auto rebuilt = concat_rows(comm_->alltoallv(std::move(send)));
    tree(v).sort_run(rebuilt);
    tree(v).build_sorted(rebuilt);
  }
  return moved_bytes;
}

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x50415241'4c414747ULL;  // "PARALAGG"
constexpr std::uint64_t kCheckpointVersion = 2;
// Header: magic, version, arity, row count, CRC-32 of the row bytes.
constexpr std::size_t kCheckpointHeaderWords = 5;

}  // namespace

void Relation::save_checkpoint(const std::string& path) {
  const auto rows = gather_full(0);
  if (comm_->rank() == 0) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("checkpoint: cannot open for writing: " + path);
    const auto body = std::as_bytes(std::span<const value_t>(rows));
    const std::uint64_t header[kCheckpointHeaderWords] = {
        kCheckpointMagic, kCheckpointVersion, cfg_.arity, rows.size() / cfg_.arity,
        vmpi::crc32(body)};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write(reinterpret_cast<const char*>(body.data()),
              static_cast<std::streamsize>(body.size()));
    if (!out) throw std::runtime_error("checkpoint: write failed: " + path);
  }
  comm_->barrier();  // nobody returns before the file exists
}

void Relation::load_checkpoint(const std::string& path) {
  // Rank 0 parses and validates the whole file — magic, version, arity,
  // declared count against the actual file size (so a corrupt count can
  // never drive a huge reserve), and the row-byte CRC — before any rank
  // touches its trees.  On any failure every rank throws and the relation
  // is left exactly as it was.
  std::vector<Tuple> rows;
  bool failed = false;
  std::string error;
  if (comm_->rank() == 0) {
    const auto fail = [&](std::string msg) {
      failed = true;
      error = std::move(msg);
    };
    std::ifstream in(path, std::ios::binary);
    std::uint64_t header[kCheckpointHeaderWords] = {};
    if (!in || !in.read(reinterpret_cast<char*>(header), sizeof(header))) {
      fail("checkpoint: cannot read " + path);
    } else if (header[0] != kCheckpointMagic) {
      fail("checkpoint: bad magic in " + path);
    } else if (header[1] != kCheckpointVersion) {
      fail("checkpoint: unsupported version " + std::to_string(header[1]) + " in " + path);
    } else if (header[2] != cfg_.arity) {
      fail("checkpoint: arity mismatch in " + path + " (file " +
           std::to_string(header[2]) + ", relation " + std::to_string(cfg_.arity) + ")");
    } else {
      const std::uint64_t count = header[3];
      const std::uint64_t row_bytes = count * cfg_.arity * sizeof(value_t);
      in.seekg(0, std::ios::end);
      const auto end = in.tellg();
      in.seekg(static_cast<std::streamoff>(sizeof(header)), std::ios::beg);
      if (end < 0 ||
          static_cast<std::uint64_t>(end) != sizeof(header) + row_bytes) {
        fail("checkpoint: file size disagrees with declared row count in " + path);
      } else {
        std::vector<std::byte> body(row_bytes);
        if (row_bytes > 0 &&
            !in.read(reinterpret_cast<char*>(body.data()),
                     static_cast<std::streamsize>(row_bytes))) {
          fail("checkpoint: truncated file " + path);
        } else if (vmpi::crc32(body) != static_cast<std::uint32_t>(header[4])) {
          fail("checkpoint: row data CRC mismatch in " + path);
        } else {
          rows.reserve(count);
          vmpi::TypedReader<value_t> r(body);
          while (!r.done()) rows.emplace_back(r.take_span(cfg_.arity));
        }
      }
    }
  }
  // All ranks must agree on failure before anyone throws, or the others
  // would hang in the scatter.
  if (comm_->allreduce<std::uint8_t>(failed ? 1 : 0, vmpi::ReduceOp::kLor) != 0) {
    throw std::runtime_error(comm_->rank() == 0 ? error : "checkpoint: load failed");
  }

  reset();
  load_facts(rows);  // rank 0 contributes everything; others pass empty
}

}  // namespace paralagg::core
