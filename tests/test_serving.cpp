// Incremental serving: live fixpoint maintenance with point lookups.
//
// The contract under test (DESIGN.md §11): after every applied update
// batch — insert-only, delete-only, or mixed — the resident fixpoint is
// bit-identical to a from-scratch evaluation on the mutated database,
// across rank counts; lookups between batches return the same sorted
// rows on every rank; a process killed mid-batch warm-restarts from the
// rolling manifest and replays the unapplied batches to the same state.

#include "serving/serving_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/program.hpp"
#include "graph/generators.hpp"
#include "queries/cc.hpp"
#include "queries/programs.hpp"
#include "queries/sssp.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Tuple;
using core::value_t;

constexpr double kWatchdog = 4.0;

// ---------------------------------------------------------------------------
// Harness: sharded batches and from-scratch oracles
// ---------------------------------------------------------------------------

struct Mutation {
  bool insert = true;
  Tuple row;
};

/// This rank's round-robin share of the mutations as an UpdateBatch —
/// the sharded-contribution contract of RelationDelta.
serving::UpdateBatch shard_batch(const vmpi::Comm& comm, std::string relation,
                                 std::span<const Mutation> muts) {
  serving::RelationDelta d;
  d.relation = std::move(relation);
  const auto n = static_cast<std::size_t>(comm.size());
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < muts.size(); i += n) {
    (muts[i].insert ? d.inserts : d.deletes).push_back(muts[i].row);
  }
  serving::UpdateBatch b;
  b.push_back(std::move(d));
  return b;
}

/// Mirror a weighted-edge mutation list into the oracle graph.  Deletes
/// remove every identical copy — the relation is a set, so a duplicate
/// input edge collapses to one stored row either way.
void apply_to_graph(graph::Graph& g, std::span<const Mutation> muts) {
  for (const auto& m : muts) {
    const graph::Edge e{m.row[0], m.row[1], m.row[2]};
    if (m.insert) {
      g.edges.push_back(e);
    } else {
      std::erase(g.edges, e);
    }
  }
}

/// The first `count` distinct edge tuples of `g` at or after `start`.
std::vector<Tuple> pick_edges(const graph::Graph& g, std::size_t start, std::size_t count) {
  std::vector<Tuple> out;
  for (std::size_t i = start; i < g.edges.size() && out.size() < count; ++i) {
    const Tuple t{g.edges[i].src, g.edges[i].dst, g.edges[i].weight};
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

/// From-scratch SSSP fixpoint (stored-order rows, sorted) — the oracle
/// every incremental state must match bit-for-bit.
std::vector<Tuple> fresh_sssp(const graph::Graph& g) {
  std::vector<Tuple> rows;
  vmpi::run(3, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = {0};
    opts.collect_distances = true;
    auto r = queries::run_sssp(comm, g, opts);
    if (comm.rank() == 0) rows = std::move(r.distances);
  });
  return rows;
}

// ---------------------------------------------------------------------------
// SSSP: insert-only, delete-only, and mixed batches match from-scratch
// ---------------------------------------------------------------------------

TEST(Serving, SsspBatchesMatchFreshRunsAcrossRankCounts) {
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 4, .seed = 7});

  // Three cumulative stages: pure inserts (weight-1 shortcuts that reroute
  // many paths), pure deletes of existing edges (forces the DRed
  // wavefront), and a mix that also deletes a row that was never there.
  std::vector<std::vector<Mutation>> stages(3);
  stages[0] = {{true, Tuple{1, 50, 1}}, {true, Tuple{50, 33, 2}}, {true, Tuple{2, 60, 1}}};
  for (const Tuple& t : pick_edges(g, 0, 3)) stages[1].push_back({false, t});
  for (const Tuple& t : pick_edges(g, 20, 2)) stages[2].push_back({false, t});
  stages[2].push_back({true, Tuple{4, 61, 3}});
  stages[2].push_back({true, Tuple{61, 9, 1}});
  stages[2].push_back({false, Tuple{0, 0, 999}});  // absent: a counted miss

  const auto expected0 = fresh_sssp(g);
  std::vector<std::vector<Tuple>> expected;
  {
    graph::Graph cur = g;
    for (const auto& s : stages) {
      apply_to_graph(cur, s);
      expected.push_back(fresh_sssp(cur));
    }
  }

  for (const int ranks : {3, 5}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const auto nr = static_cast<std::size_t>(ranks);
    std::vector<std::vector<Tuple>> initial(nr);
    std::vector<std::vector<std::vector<Tuple>>> got(stages.size(),
                                                     std::vector<std::vector<Tuple>>(nr));
    std::vector<serving::UpdateResult> results(stages.size());
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, {});
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
      srv.start();
      const auto me = static_cast<std::size_t>(comm.rank());
      initial[me] = srv.lookup("spath", {});
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const auto res = srv.apply_updates(shard_batch(comm, "edge", stages[s]));
        if (comm.rank() == 0) results[s] = res;
        got[s][me] = srv.lookup("spath", {});
      }

      // Batched point lookups agree with the full scan, including a
      // repeated key and one matching nothing.
      const auto& all = got.back()[me];
      const std::vector<Tuple> keys{Tuple{5}, Tuple{0}, Tuple{5}, Tuple{63}};
      const auto per = srv.lookup_batch("spath", keys);
      ASSERT_EQ(per.size(), keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        std::vector<Tuple> want;
        for (const Tuple& row : all) {
          if (row[0] == keys[i][0]) want.push_back(row);
        }
        EXPECT_EQ(per[i], want) << "key " << keys[i][0];
      }
      // Mixed key lengths would break the monotone single-pass: typed error.
      const std::vector<Tuple> mixed{Tuple{1}, Tuple{2, 3}};
      EXPECT_THROW((void)srv.lookup_batch("spath", mixed), serving::ServingError);
    });

    for (std::size_t r = 0; r < nr; ++r) {
      EXPECT_EQ(initial[r], expected0) << "cold start, rank " << r;
      for (std::size_t s = 0; s < stages.size(); ++s) {
        EXPECT_EQ(got[s][r], expected[s]) << "stage " << s << ", rank " << r;
      }
    }
    for (std::size_t s = 0; s < stages.size(); ++s) {
      EXPECT_FALSE(results[s].aborted_fault) << "stage " << s;
    }
    // Insert stages must do derivation work; a pure-delete stage may
    // legitimately derive nothing (no surviving support for the retracted
    // keys means recovery and the tail both stay empty).
    EXPECT_GT(results[0].tuples_derived, 0u);
    EXPECT_GT(results[0].base_inserted, 0u);
    EXPECT_EQ(results[0].base_deleted, 0u);
    EXPECT_GT(results[1].base_deleted, 0u);
    EXPECT_GT(results[1].retracted, 0u);  // deletes must actually retract
    EXPECT_GT(results[1].retraction_rounds, 0u);
    EXPECT_GE(results[2].missing_deletes, 1u);  // the absent row was counted
  }
}

// ---------------------------------------------------------------------------
// CC: undirected mutations, component splits/merges, projection rebuild
// ---------------------------------------------------------------------------

using EdgeSet = std::set<std::pair<value_t, value_t>>;

EdgeSet symmetrized_set(const graph::Graph& g) {
  EdgeSet s;
  for (const auto& e : g.edges) {
    s.emplace(e.src, e.dst);
    s.emplace(e.dst, e.src);
  }
  return s;
}

/// Both directions of one undirected mutation — what the serving batch
/// carries and what the oracle set mirrors.
void add_undirected(std::vector<Mutation>& out, bool insert, value_t u, value_t v) {
  out.push_back({insert, Tuple{u, v}});
  if (u != v) out.push_back({insert, Tuple{v, u}});
}

void apply_to_set(EdgeSet& s, std::span<const Mutation> muts) {
  for (const auto& m : muts) {
    const std::pair<value_t, value_t> p{m.row[0], m.row[1]};
    if (m.insert) {
      s.insert(p);
    } else {
      s.erase(p);
    }
  }
}

struct CcOracle {
  std::vector<Tuple> labels;
  std::uint64_t components = 0;
};

/// From-scratch CC on the pre-symmetrized edge set (symmetrize=false so
/// the oracle's relation content equals the maintained one exactly).
CcOracle fresh_cc(const EdgeSet& s, std::uint64_t num_nodes) {
  graph::Graph g;
  g.num_nodes = num_nodes;
  for (const auto& [u, v] : s) g.edges.push_back({u, v, 1});
  CcOracle o;
  vmpi::run(3, [&](vmpi::Comm& comm) {
    queries::CcOptions opts;
    opts.symmetrize = false;
    opts.collect_labels = true;
    auto r = queries::run_cc(comm, g, opts);
    if (comm.rank() == 0) {
      o.labels = std::move(r.labels);
      o.components = r.component_count;
    }
  });
  return o;
}

TEST(Serving, CcBatchesMatchFreshRunsAcrossRankCounts) {
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 3, .seed = 19});

  std::vector<std::vector<Mutation>> stages(3);
  add_undirected(stages[0], true, 2, 50);  // may merge components
  add_undirected(stages[0], true, 9, 61);
  add_undirected(stages[1], false, g.edges[1].src, g.edges[1].dst);  // may split
  add_undirected(stages[1], false, g.edges[3].src, g.edges[3].dst);
  add_undirected(stages[2], false, g.edges[5].src, g.edges[5].dst);
  add_undirected(stages[2], true, 7, 58);
  add_undirected(stages[2], false, 70, 71);  // absent: a counted miss

  std::vector<CcOracle> expected;
  {
    EdgeSet cur = symmetrized_set(g);
    for (const auto& s : stages) {
      apply_to_set(cur, s);
      expected.push_back(fresh_cc(cur, g.num_nodes));
    }
  }

  for (const int ranks : {2, 5}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const auto nr = static_cast<std::size_t>(ranks);
    std::vector<std::vector<std::vector<Tuple>>> labels(stages.size(),
                                                        std::vector<std::vector<Tuple>>(nr));
    std::vector<std::vector<std::uint64_t>> comps(stages.size(),
                                                  std::vector<std::uint64_t>(nr, 0));
    std::vector<serving::UpdateResult> results(stages.size());
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      auto prog = queries::build_cc_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, {});
      queries::load_cc_facts(prog, g, /*symmetrize=*/true);
      srv.start();
      const auto me = static_cast<std::size_t>(comm.rank());
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const auto res = srv.apply_updates(shard_batch(comm, "edge", stages[s]));
        if (comm.rank() == 0) results[s] = res;
        labels[s][me] = srv.lookup("cc", {});
        // The projection stratum is rebuilt per batch: the representative
        // count is the fresh component count.
        comps[s][me] = srv.lookup("cc_representative", {}).size();
      }
    });

    for (std::size_t s = 0; s < stages.size(); ++s) {
      EXPECT_FALSE(results[s].aborted_fault) << "stage " << s;
      for (std::size_t r = 0; r < nr; ++r) {
        EXPECT_EQ(labels[s][r], expected[s].labels) << "stage " << s << ", rank " << r;
        EXPECT_EQ(comps[s][r], expected[s].components) << "stage " << s << ", rank " << r;
      }
    }
    EXPECT_GT(results[1].retracted, 0u);
    EXPECT_GE(results[2].missing_deletes, 2u);  // both directions missed
  }
}

// ---------------------------------------------------------------------------
// Warm start across rank counts (manifest at 4 ranks, serve at 7)
// ---------------------------------------------------------------------------

TEST(Serving, WarmStartAcrossRankCountsServesIdenticalLookups) {
  const std::string path = testing::TempDir() + "/paralagg_serving_warm.bin";
  std::remove(path.c_str());
  const auto g = graph::make_rmat({.scale = 5, .edge_factor = 4, .seed = 11});

  std::vector<Mutation> batch_a{{true, Tuple{1, 20, 1}}};
  for (const Tuple& t : pick_edges(g, 0, 1)) batch_a.push_back({false, t});
  std::vector<Mutation> batch_b{{true, Tuple{2, 25, 2}}};
  for (const Tuple& t : pick_edges(g, 3, 1)) batch_b.push_back({false, t});

  graph::Graph ga = g;
  apply_to_graph(ga, batch_a);
  graph::Graph gab = ga;
  apply_to_graph(gab, batch_b);
  const auto expected_a = fresh_sssp(ga);
  const auto expected_ab = fresh_sssp(gab);

  serving::ServingConfig cfg;
  cfg.manifest_path = path;
  cfg.checkpoint_every_batches = 1;

  // Leg 1: cold start at 4 ranks, one batch, rolling manifest written.
  std::vector<Tuple> leg1_rows;
  bool leg1_checkpointed = false;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, cfg);
    EXPECT_FALSE(srv.can_warm_start());
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto res = srv.apply_updates(shard_batch(comm, "edge", batch_a));
    if (comm.rank() == 0) {
      leg1_checkpointed = res.checkpointed;
      leg1_rows = srv.lookup("spath", {});
    } else {
      (void)srv.lookup("spath", {});  // lookups are collective
    }
  });
  EXPECT_TRUE(leg1_checkpointed);
  EXPECT_EQ(leg1_rows, expected_a);

  // Leg 2: a 7-rank service warm-starts from the 4-rank manifest — no
  // facts loaded — and both lookups and further batches behave as if the
  // service had never gone down.
  const int ranks2 = 7;
  std::vector<int> warm(ranks2, 0), resumed(ranks2, 0);
  std::vector<std::vector<Tuple>> rows_a(ranks2), rows_ab(ranks2);
  vmpi::run(ranks2, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, cfg);
    const auto me = static_cast<std::size_t>(comm.rank());
    warm[me] = srv.can_warm_start() ? 1 : 0;
    const auto rr = srv.start();
    resumed[me] = rr.resumed ? 1 : 0;
    rows_a[me] = srv.lookup("spath", {});
    const auto res = srv.apply_updates(shard_batch(comm, "edge", batch_b));
    EXPECT_FALSE(res.aborted_fault);
    rows_ab[me] = srv.lookup("spath", {});
  });
  for (int r = 0; r < ranks2; ++r) {
    EXPECT_TRUE(warm[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_TRUE(resumed[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_EQ(rows_a[static_cast<std::size_t>(r)], expected_a) << "rank " << r;
    EXPECT_EQ(rows_ab[static_cast<std::size_t>(r)], expected_ab) << "rank " << r;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Kill mid-batch, warm-resume from the rolling manifest, replay
// ---------------------------------------------------------------------------

TEST(Serving, KillDuringBatchThenWarmResumeReplays) {
  const std::string path = testing::TempDir() + "/paralagg_serving_kill.bin";
  std::remove(path.c_str());
  // Unit-weight chain: batch 1 reweights edge 10 -> 11, so its tail
  // re-derives the whole suffix — a wide epoch window to land a kill in.
  const auto g = graph::make_chain(48, /*max_weight=*/1);
  const Tuple reweighted{g.edges[10].src, g.edges[10].dst, g.edges[10].weight};
  const std::vector<std::vector<Mutation>> batches{
      {{true, Tuple{0, 47, 1000}}},  // a losing shortcut (chain dist is 47)
      {{false, reweighted}, {true, Tuple{reweighted[0], reweighted[1], reweighted[2] + 1}}},
  };

  graph::Graph final_g = g;
  for (const auto& b : batches) apply_to_graph(final_g, b);
  const auto oracle = fresh_sssp(final_g);

  // Clean measuring leg: epochs advance once per engine loop iteration,
  // so the iteration counts locate batch 1's tail on the epoch axis.
  std::size_t start_iters = 0, tail0 = 0, tail1 = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    const auto rr = srv.start();
    const auto r0 = srv.apply_updates(shard_batch(comm, "edge", batches[0]));
    const auto r1 = srv.apply_updates(shard_batch(comm, "edge", batches[1]));
    if (comm.rank() == 0) {
      start_iters = rr.total_iterations;
      tail0 = r0.tail_iterations;
      tail1 = r1.tail_iterations;
    }
  });
  ASSERT_GE(tail1, 8u) << "batch 1's tail is too short to target reliably";

  // Killed leg: rank 1 dies in the middle of batch 1's tail, after the
  // rolling manifest for batch 0 was written.
  const int ranks = 4;
  vmpi::RunOptions opt;
  opt.fault.kill_rank = 1;
  opt.fault.kill_epoch = static_cast<std::uint64_t>(start_iters + tail0 + tail1 / 2);
  opt.watchdog_seconds = kWatchdog;
  serving::ServingConfig cfg;
  cfg.manifest_path = path;
  cfg.checkpoint_every_batches = 1;
  std::vector<int> aborted(ranks, 0);
  std::vector<std::uint64_t> applied(ranks, 0);
  vmpi::run(ranks, opt, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, cfg);
    EXPECT_FALSE(srv.can_warm_start());
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto me = static_cast<std::size_t>(comm.rank());
    for (const auto& b : batches) {
      const auto res = srv.apply_updates(shard_batch(comm, "edge", b));
      if (res.aborted_fault) {
        aborted[me] = 1;
        break;  // the engine is dead; a real service would exec() here
      }
      ++applied[me];
    }
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(aborted[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(applied[static_cast<std::size_t>(r)], 1u) << "rank " << r;
  }

  // Resume leg, at a different rank count: warm-start from the manifest
  // and replay the batches the killed service never finished.
  const int ranks2 = 7;
  std::vector<int> warm(ranks2, 0);
  std::vector<std::vector<Tuple>> rows(ranks2);
  vmpi::run(ranks2, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, cfg);
    const auto me = static_cast<std::size_t>(comm.rank());
    warm[me] = srv.can_warm_start() ? 1 : 0;
    if (warm[me] == 0) {
      // Generic restart logic: no manifest would mean a cold replay.
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    }
    srv.start();
    for (std::size_t i = applied[0]; i < batches.size(); ++i) {
      const auto res = srv.apply_updates(shard_batch(comm, "edge", batches[i]));
      EXPECT_FALSE(res.aborted_fault);
    }
    rows[me] = srv.lookup("spath", {});
  });
  for (int r = 0; r < ranks2; ++r) {
    EXPECT_TRUE(warm[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_EQ(rows[static_cast<std::size_t>(r)], oracle) << "rank " << r;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Typed failures: unservable programs and API misuse
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Per-batch accounting: tuple limit, profile history, undo-log size
// ---------------------------------------------------------------------------

/// Unit-weight chain 0 -> 1 -> ... -> 47, optionally without one edge.
graph::Graph unit_chain(value_t skip_src = 1000) {
  auto g = graph::make_chain(48, /*max_weight=*/1);
  std::erase_if(g.edges, [&](const graph::Edge& e) { return e.src == skip_src; });
  return g;
}

TEST(Serving, TupleLimitCountsEachBatchAndACutTailRollsBack) {
  // EngineConfig::tuple_limit bounds each batch's tail, not the service's
  // lifetime: a limit just above the cold start serves many small batches
  // cleanly.  A tail that does hit the limit stopped short of the
  // fixpoint; the batch is reported and rolled back like a fault.
  serving::ServingConfig cfg;
  // The cold start materializes 47 loop tuples; each batch below, 2.
  cfg.engine.tuple_limit = 52;
  {
    const auto g = unit_chain();
    graph::Graph cur = g;
    std::vector<std::vector<Mutation>> batches;
    for (value_t i = 0; i < 12; ++i) {  // reweight 44 -> 45 back and forth
      const value_t w = 1 + i % 2;
      batches.push_back({{false, Tuple{44, 45, w}}, {true, Tuple{44, 45, 3 - w}}});
    }
    for (const auto& b : batches) apply_to_graph(cur, b);
    const auto oracle = fresh_sssp(cur);
    std::vector<serving::UpdateResult> results;
    std::vector<std::vector<Tuple>> rows(3);
    vmpi::run(3, [&](vmpi::Comm& comm) {
      auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, cfg);
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
      EXPECT_FALSE(srv.start().aborted_tuple_limit);
      for (const auto& b : batches) {
        const auto res = srv.apply_updates(shard_batch(comm, "edge", b));
        if (comm.rank() == 0) results.push_back(res);
      }
      rows[static_cast<std::size_t>(comm.rank())] = srv.lookup("spath", {});
    });
    for (const auto& res : results) {
      EXPECT_FALSE(res.aborted_tuple_limit);
      EXPECT_FALSE(res.aborted_fault);
      EXPECT_GT(res.retracted, 0u);
    }
    for (const auto& r : rows) EXPECT_EQ(r, oracle);
  }
  {
    // Without edge 10 -> 11 the cold start reaches 10 nodes; inserting it
    // makes the tail re-derive 36 more, past a limit of 12.
    const auto g = unit_chain(10);
    const std::vector<Mutation> big{{true, Tuple{10, 11, 1}}};
    const std::vector<Mutation> small{{true, Tuple{3, 7, 1}}};  // 7 gets closer
    graph::Graph cur = g;
    apply_to_graph(cur, small);
    const auto pre = fresh_sssp(g);
    const auto oracle = fresh_sssp(cur);
    cfg.engine.tuple_limit = 12;
    std::vector<serving::UpdateResult> cut(3), next(3);
    std::vector<std::vector<Tuple>> between(3), after(3);
    vmpi::run(3, [&](vmpi::Comm& comm) {
      auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, cfg);
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
      srv.start();
      const auto me = static_cast<std::size_t>(comm.rank());
      cut[me] = srv.apply_updates(shard_batch(comm, "edge", big));
      between[me] = srv.lookup("spath", {});
      next[me] = srv.apply_updates(shard_batch(comm, "edge", small));
      after[me] = srv.lookup("spath", {});
    });
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_TRUE(cut[r].aborted_tuple_limit);
      EXPECT_FALSE(cut[r].aborted_fault);
      EXPECT_TRUE(cut[r].rolled_back);
      EXPECT_EQ(between[r], pre);
      EXPECT_FALSE(next[r].aborted_tuple_limit);
      EXPECT_EQ(after[r], oracle);
    }
  }
}

TEST(Serving, ResidentEngineKeepsOnlyTheLastRunAndUndoLogStaysWithinTheBatch) {
  // Counter gates for O(batch) serving, no wall clock: after every batch
  // the resident engine's profile holds exactly that batch's tail
  // iterations (not the history of every batch so far), and the undo log
  // held no more entries than the batch changed: each base change and
  // its one reverse-index mirror, each retracted key, each derived row.
  const auto g = graph::make_rmat({.scale = 5, .edge_factor = 4, .seed = 23});
  constexpr std::size_t kBatches = 200;
  std::vector<std::vector<Mutation>> batches(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    const auto v = static_cast<value_t>(i);
    batches[i].push_back({true, Tuple{(v * 7) % 32, (v * 13 + 5) % 32, 1 + v % 9}});
    if (i > 0) batches[i].push_back({false, batches[i - 1][0].row});
    if (i % 10 == 0) {
      for (const Tuple& t : pick_edges(g, i / 10, 1)) batches[i].push_back({false, t});
    }
  }
  graph::Graph cur = g;
  for (const auto& b : batches) apply_to_graph(cur, b);
  const auto oracle = fresh_sssp(cur);

  std::vector<std::vector<Tuple>> rows(3);
  std::vector<std::size_t> history(3), last_tail(3);
  std::vector<std::uint64_t> over_bound(3, 0);
  vmpi::run(3, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto me = static_cast<std::size_t>(comm.rank());
    for (const auto& b : batches) {
      const auto res = srv.apply_updates(shard_batch(comm, "edge", b));
      EXPECT_FALSE(res.aborted_fault);
      const auto bound = 2 * (res.base_inserted + res.base_deleted) + res.retracted +
                         res.tuples_derived;
      if (res.undo_entries > bound) ++over_bound[me];
      EXPECT_EQ(srv.engine().rank_profile().history().size(), res.tail_iterations);
      last_tail[me] = res.tail_iterations;
    }
    history[me] = srv.engine().rank_profile().history().size();
    rows[me] = srv.lookup("spath", {});
  });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rows[r], oracle) << "rank " << r;
    EXPECT_EQ(history[r], last_tail[r]) << "rank " << r;
    EXPECT_EQ(over_bound[r], 0u) << "rank " << r;
  }
}

TEST(Serving, LookupBatchEqualsPerKeyLookup) {
  // lookup_batch answers every key exactly as lookup() of that key alone,
  // and both equal the stored rows with that prefix (from a gather of the
  // whole relation): unsorted, duplicate and absent keys, every prefix
  // length of the target's key (0 is a full scan), on the aggregated
  // spath and on a sub-bucketed edge relation whose rows for one source
  // node sit on several ranks, so receivers must merge one key's rows
  // across replies.
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 4, .seed = 7});
  constexpr value_t kAbsent = value_t{1} << 40;  // no node id is this large
  for (const int ranks : {1, 3, 4}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    std::uint64_t most_holders = 0, absent_keys = 0;
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      auto prog = queries::build_sssp_program(comm, /*edge_sub_buckets=*/3,
                                              /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, {});
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
      srv.start();
      for (core::Relation* rel : {prog.spath, prog.edge}) {
        SCOPED_TRACE(rel->name());
        const auto all = srv.lookup(rel->name(), {});
        const auto gathered = rel->gather_to_root(0);  // sorted, rank 0 only
        if (comm.rank() == 0) {
          EXPECT_EQ(all, gathered);
        }
        ASSERT_FALSE(all.empty());
        const auto& tree = std::as_const(rel->tree(core::Version::kFull));
        for (std::size_t len = 0; len <= tree.key_arity(); ++len) {
          SCOPED_TRACE("prefix length " + std::to_string(len));
          // Prefixes of every 5th stored row, largest first (so unsorted),
          // one repeated at both ends and one in the middle, and an absent
          // key among them.
          std::vector<Tuple> keys;
          for (std::size_t i = all.size(); i-- > 0;) {
            if (i % 5 == 0) keys.emplace_back(all[i].prefix(len));
          }
          const Tuple first = keys.front(), middle = keys[keys.size() / 2];
          keys.push_back(first);
          keys.insert(keys.begin() + 1, middle);
          if (len > 0) {
            Tuple absent = keys.back();
            absent[0] = kAbsent;
            keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(keys.size() / 3), absent);
          }
          const auto per = srv.lookup_batch(rel->name(), keys);
          ASSERT_EQ(per.size(), keys.size());
          for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(per[i], srv.lookup(rel->name(), keys[i].view())) << "key " << i;
            std::vector<Tuple> want;
            for (const Tuple& row : all) {
              if (std::equal(keys[i].view().begin(), keys[i].view().end(), row.view().begin())) {
                want.push_back(row);
              }
            }
            EXPECT_EQ(per[i], want) << "key " << i;
            if (comm.rank() == 0 && per[i].empty()) ++absent_keys;
          }
          if (rel == prog.edge && len == 1) {
            // How many ranks hold rows of each requested source node.
            std::vector<std::uint64_t> holders(keys.size(), 0);
            for (std::size_t i = 0; i < keys.size(); ++i) {
              tree.scan_prefix(keys[i].view(),
                               [&](std::span<const value_t>) { holders[i] = 1; });
            }
            comm.allreduce_each(std::span<std::uint64_t>(holders), vmpi::ReduceOp::kSum);
            if (comm.rank() == 0) {
              most_holders = *std::max_element(holders.begin(), holders.end());
            }
          }
        }
      }
    });
    EXPECT_GT(absent_keys, 0u);
    if (ranks > 1) {
      EXPECT_GE(most_holders, 2u) << "no key's rows were spread over ranks";
    }
  }
}

TEST(Serving, OneSummaryReductionPerBatch) {
  // A batch's allreduces are one per retraction-wavefront round, the
  // tail's own (SSSP's single loop rule: a join-order vote and a
  // termination count per iteration), and exactly one that folds the
  // batch's six result counters across ranks.
  const auto g = graph::make_rmat({.scale = 6, .edge_factor = 4, .seed = 11});
  constexpr std::size_t kBatches = 12;
  std::vector<std::vector<Mutation>> batches(kBatches);
  for (std::size_t i = 0; i < kBatches; ++i) {
    const auto v = static_cast<value_t>(i);
    batches[i].push_back({true, Tuple{(v * 5 + 1) % 64, (v * 11 + 3) % 64, 1 + v % 7}});
    for (const Tuple& t : pick_edges(g, 3 * i, 1)) batches[i].push_back({false, t});
  }
  std::uint64_t rounds = 0, tails = 0;
  vmpi::run(3, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    for (const auto& b : batches) {
      const auto calls0 = comm.stats().calls_of(vmpi::Op::kAllreduce);
      const auto res = srv.apply_updates(shard_batch(comm, "edge", b));
      const auto calls = comm.stats().calls_of(vmpi::Op::kAllreduce) - calls0;
      EXPECT_FALSE(res.aborted_fault);
      EXPECT_EQ(calls, res.retraction_rounds + 2 * res.tail_iterations + 1);
      if (comm.rank() == 0) {
        rounds += res.retraction_rounds;
        tails += res.tail_iterations;
      }
    }
  });
  EXPECT_GT(rounds, 0u);
  EXPECT_GT(tails, 0u);
}

TEST(Serving, RejectsUnservableProgramsAndMisuse) {
  // A program with no recursive stratum has nothing to maintain.
  vmpi::run(2, [&](vmpi::Comm& comm) {
    core::Program p(comm);
    auto* a = p.relation({.name = "a", .arity = 1, .jcc = 1});
    auto* b = p.relation({.name = "b", .arity = 1, .jcc = 1});
    auto& s = p.stratum();
    s.init_rules.push_back(
        core::CopyRule{.src = a,
                       .version = core::Version::kFull,
                       .out = {.target = b, .cols = {queries::Expr::col_a(0)}}});
    EXPECT_THROW(serving::ServingEngine(comm, p, {}), serving::ServingError);
  });

  const auto g = graph::make_chain(8, 1);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    // Everything before start() is a typed error, not a silent no-op.
    EXPECT_THROW((void)srv.lookup("spath", {}), serving::ServingError);
    EXPECT_THROW((void)srv.apply_updates({}), serving::ServingError);
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    EXPECT_THROW((void)srv.start(), serving::ServingError);
    EXPECT_THROW((void)srv.lookup("no_such_relation", {}), serving::ServingError);
    const std::vector<value_t> too_long{1, 2, 3};
    EXPECT_THROW((void)srv.lookup("spath", too_long), serving::ServingError);
    // Updates may only target base relations — spath is derived.
    serving::UpdateBatch bad;
    bad.push_back({.relation = "spath", .inserts = {Tuple{1, 2, 3}}, .deletes = {}});
    EXPECT_THROW((void)srv.apply_updates(bad), serving::ServingError);
    // The typed failure left the service untouched, with no batch left
    // open in any relation: it still answers and applies the next batch.
    for (const auto& rel : prog.program->relations()) EXPECT_FALSE(rel->in_batch());
    EXPECT_FALSE(srv.lookup("spath", {}).empty());
    serving::UpdateBatch good;
    if (comm.rank() == 0) {
      good.push_back({.relation = "edge", .inserts = {Tuple{0, 5, 1}}, .deletes = {}});
    }
    const auto res = srv.apply_updates(good);
    EXPECT_FALSE(res.aborted_fault);
    EXPECT_EQ(res.base_inserted, 1u);
  });
}

}  // namespace
}  // namespace paralagg
