// Engine: semi-naive fixpoints, strata, refresh rounds, termination,
// tuple limits, baseline configuration.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

/// Transitive-closure program over a chain 0 -> 1 -> ... -> n-1.
struct TcFixture {
  Program program;
  Relation* edge;
  Relation* path;

  TcFixture(vmpi::Comm& comm, value_t n) : program(comm) {
    edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    path = program.relation({.name = "path", .arity = 2, .jcc = 1});
    auto& s = program.stratum();
    s.init_rules.push_back(CopyRule{
        .src = edge,
        .version = Version::kFull,
        .out = {.target = path, .cols = {Expr::col_a(1), Expr::col_a(0)}},
    });
    s.loop_rules.push_back(JoinRule{
        .a = path,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = path, .cols = {Expr::col_b(1), Expr::col_a(1)}},
    });
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      for (value_t v = 0; v + 1 < n; ++v) facts.push_back(Tuple{v, v + 1});
    }
    edge->load_facts(facts);
  }
};

TEST(Engine, ChainTransitiveClosure) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    TcFixture f(comm, 10);
    Engine engine(comm);
    const auto result = engine.run(f.program);
    // Chain of 10 nodes: 9+8+...+1 = 45 pairs.
    EXPECT_EQ(f.path->global_size(Version::kFull), 45u);
    // Fixpoint depth: longest path has 9 hops; delta empties at iteration 9.
    EXPECT_EQ(result.total_iterations, 9u);
    ASSERT_EQ(result.strata.size(), 1u);
    EXPECT_TRUE(result.strata[0].reached_fixpoint);
    EXPECT_FALSE(result.strata[0].aborted_tuple_limit);
  });
}

TEST(Engine, CycleTerminatesBySetSemantics) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* path = program.relation({.name = "path", .arity = 2, .jcc = 1});
    auto& s = program.stratum();
    s.init_rules.push_back(CopyRule{
        .src = edge,
        .version = Version::kFull,
        .out = {.target = path, .cols = {Expr::col_a(1), Expr::col_a(0)}},
    });
    s.loop_rules.push_back(JoinRule{
        .a = path,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = path, .cols = {Expr::col_b(1), Expr::col_a(1)}},
    });
    // 4-cycle: closure is the full 4x4 pair set.
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 4; ++v) facts.push_back(Tuple{v, (v + 1) % 4});
    }
    edge->load_facts(facts);
    Engine engine(comm);
    const auto result = engine.run(program);
    EXPECT_TRUE(result.strata[0].reached_fixpoint);
    EXPECT_EQ(path->global_size(Version::kFull), 16u);
  });
}

TEST(Engine, RecursiveMinAggregationShortestPath) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // Diamond: 0 -> {1 (w=1), 2 (w=10)} -> 3; shortest 0->3 = 1 + 1 = 2.
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* dist = program.relation({.name = "dist",
                                   .arity = 2,
                                   .jcc = 1,
                                   .dep_arity = 1,
                                   .aggregator = make_min_aggregator()});
    auto& s = program.stratum();
    s.loop_rules.push_back(JoinRule{
        .a = dist,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = dist,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
    });
    std::vector<Tuple> edges, seed;
    if (comm.rank() == 0) {
      edges = {Tuple{0, 1, 1}, Tuple{0, 2, 10}, Tuple{1, 3, 1}, Tuple{2, 3, 1}};
      seed = {Tuple{0, 0}};
    }
    edge->load_facts(edges);
    dist->load_facts(seed);
    Engine engine(comm);
    engine.run(program);

    const auto rows = dist->gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 4u);
      EXPECT_EQ(rows[0], (Tuple{0, 0}));
      EXPECT_EQ(rows[1], (Tuple{1, 1}));
      EXPECT_EQ(rows[2], (Tuple{2, 10}));
      EXPECT_EQ(rows[3], (Tuple{3, 2}));  // collapsed past the w=10 detour
    }
  });
}

TEST(Engine, WeightedCycleTerminatesOnlyViaAggregation) {
  // With a plain relation a weighted cycle diverges (lengths grow
  // unboundedly); with $MIN it terminates.  This is the heart of the
  // paper's termination argument (ascending chains on a finite lattice).
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* dist = program.relation({.name = "dist",
                                   .arity = 2,
                                   .jcc = 1,
                                   .dep_arity = 1,
                                   .aggregator = make_min_aggregator()});
    auto& s = program.stratum();
    s.loop_rules.push_back(JoinRule{
        .a = dist,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = dist,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
    });
    std::vector<Tuple> edges, seed;
    if (comm.rank() == 0) {
      edges = {Tuple{0, 1, 2}, Tuple{1, 2, 2}, Tuple{2, 0, 2}};  // weighted 3-cycle
      seed = {Tuple{0, 0}};
    }
    edge->load_facts(edges);
    dist->load_facts(seed);
    Engine engine(comm);
    const auto result = engine.run(program);
    EXPECT_TRUE(result.strata[0].reached_fixpoint);
    EXPECT_LE(result.total_iterations, 5u);
    const auto rows = dist->gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 3u);
      EXPECT_EQ(rows[1][1], 2u);
      EXPECT_EQ(rows[2][1], 4u);
    }
  });
}

TEST(Engine, TupleLimitAbortsRunaway) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* lens = program.relation({.name = "lens", .arity = 2, .jcc = 1});  // plain!
    auto& s = program.stratum();
    s.loop_rules.push_back(JoinRule{
        .a = lens,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = lens,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
    });
    std::vector<Tuple> edges, seed;
    if (comm.rank() == 0) {
      edges = {Tuple{0, 1, 1}, Tuple{1, 0, 1}};  // 2-cycle, plain lengths diverge
      seed = {Tuple{0, 0}};
    }
    edge->load_facts(edges);
    lens->load_facts(seed);
    EngineConfig cfg;
    cfg.tuple_limit = 100;
    Engine engine(comm, cfg);
    const auto result = engine.run(program);
    EXPECT_TRUE(result.strata[0].aborted_tuple_limit);
    EXPECT_FALSE(result.strata[0].reached_fixpoint);
    EXPECT_TRUE(result.aborted_tuple_limit);  // surfaced at run level too
  });
}

TEST(Engine, TupleLimitAbortOfBoundedStratumIsNotAFixpoint) {
  // Regression: a bounded (non-fixpoint) stratum cut short by the tuple
  // limit used to be blanket-reported as reached_fixpoint = true, so
  // truncated bounded runs looked complete to callers.
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
    auto* lens = program.relation({.name = "lens", .arity = 2, .jcc = 1});  // plain!
    auto& s = program.stratum();
    s.fixpoint = false;
    s.max_rounds = 50;  // the budget is NOT what stops this run
    s.loop_rules.push_back(JoinRule{
        .a = lens,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = lens,
                .cols = {Expr::col_b(1), Expr::add(Expr::col_a(1), Expr::col_b(2))}},
    });
    std::vector<Tuple> edges, seed;
    if (comm.rank() == 0) {
      edges = {Tuple{0, 1, 1}, Tuple{1, 0, 1}};  // 2-cycle, plain lengths diverge
      seed = {Tuple{0, 0}};
    }
    edge->load_facts(edges);
    lens->load_facts(seed);
    EngineConfig cfg;
    cfg.tuple_limit = 10;  // one new length per round: limit hits before round 50
    Engine engine(comm, cfg);
    const auto result = engine.run(program);
    ASSERT_EQ(result.strata.size(), 1u);
    EXPECT_TRUE(result.strata[0].aborted_tuple_limit);
    EXPECT_FALSE(result.strata[0].reached_fixpoint);
    EXPECT_TRUE(result.aborted_tuple_limit);
    EXPECT_LT(result.total_iterations, 50u);  // it really was cut short
  });
}

TEST(Engine, RefreshStratumRunsExactRounds) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* nodes = program.relation({.name = "nodes", .arity = 1, .jcc = 1});
    auto* acc = program.relation({.name = "acc",
                                  .arity = 2,
                                  .jcc = 1,
                                  .dep_arity = 1,
                                  .aggregator = make_sum_aggregator(),
                                  .agg_mode = AggMode::kRefresh});
    auto& s = program.stratum();
    s.fixpoint = false;
    s.max_rounds = 7;
    s.loop_rules.push_back(CopyRule{
        .src = nodes,
        .version = Version::kFull,
        .out = {.target = acc, .cols = {Expr::col_a(0), Expr::constant(1)}},
    });
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 10; ++v) facts.push_back(Tuple{v});
    }
    nodes->load_facts(facts);
    Engine engine(comm);
    const auto result = engine.run(program);
    EXPECT_EQ(result.total_iterations, 7u);
    // Refresh replaces each round: values stay 1, they do not accumulate.
    const auto rows = acc->gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 10u);
      for (const auto& row : rows) EXPECT_EQ(row[1], 1u);
    }
  });
}

TEST(Engine, MultiStratumChaining) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    TcFixture f(comm, 6);
    // Second stratum: reachable-from-0 count via filter on path (y, x=0).
    auto* from0 = f.program.relation({.name = "from0", .arity = 1, .jcc = 1});
    auto& s2 = f.program.stratum();
    s2.init_rules.push_back(CopyRule{
        .src = f.path,
        .version = Version::kFull,
        .out = {.target = from0, .cols = {Expr::col_a(0)}},
        .filter = Expr::eq(Expr::col_a(1), Expr::constant(0)),
    });
    Engine engine(comm);
    engine.run(f.program);
    EXPECT_EQ(from0->global_size(Version::kFull), 5u);  // nodes 1..5
  });
}

TEST(Engine, NonLinearRecursionMatchesLinear) {
  // Non-linear TC — Path(x, z) <- Path(x, y), Path(y, z) — via the standard
  // semi-naive expansion (delta x full) + (full x delta).  The fixpoint
  // must equal the linear formulation's, in logarithmically many
  // iterations instead of linearly many.
  const value_t n = 32;
  std::size_t linear_iters = 0, nonlinear_iters = 0;
  std::uint64_t linear_count = 0, nonlinear_count = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    {
      TcFixture f(comm, n);
      Engine engine(comm);
      const auto r = engine.run(f.program);
      const auto count = f.path->global_size(Version::kFull);  // collective
      if (comm.rank() == 0) {
        linear_iters = r.total_iterations;
        linear_count = count;
      }
    }
    {
      Program program(comm);
      auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
      // Two paths indexes: "fwd" keyed on source (x, y->stored (x,y)) and
      // "rev" keyed on target (stored (y, x)); the join Path(x,y), Path(y,z)
      // matches rev's key y against fwd's key y.
      auto* fwd = program.relation({.name = "path_fwd", .arity = 2, .jcc = 1});
      auto* rev = program.relation({.name = "path_rev", .arity = 2, .jcc = 1});
      auto& s = program.stratum();
      // Seed both indexes from the edges.
      s.init_rules.push_back(CopyRule{
          .src = edge,
          .version = Version::kFull,
          .out = {.target = fwd, .cols = {Expr::col_a(0), Expr::col_a(1)}}});
      s.init_rules.push_back(CopyRule{
          .src = edge,
          .version = Version::kFull,
          .out = {.target = rev, .cols = {Expr::col_a(1), Expr::col_a(0)}}});
      // delta(rev) x full(fwd) and full(rev) x delta(fwd), each feeding both
      // indexes.
      const auto emit_pair = [&](Relation* a, Version av, Relation* b, Version bv) {
        // a = rev (y, x), b = fwd (y, z): new pair (x, z).
        s.loop_rules.push_back(JoinRule{
            .a = a,
            .a_version = av,
            .b = b,
            .b_version = bv,
            .out = {.target = fwd, .cols = {Expr::col_a(1), Expr::col_b(1)}}});
        s.loop_rules.push_back(JoinRule{
            .a = a,
            .a_version = av,
            .b = b,
            .b_version = bv,
            .out = {.target = rev, .cols = {Expr::col_b(1), Expr::col_a(1)}}});
      };
      emit_pair(rev, Version::kDelta, fwd, Version::kFull);
      emit_pair(rev, Version::kFull, fwd, Version::kDelta);

      std::vector<Tuple> facts;
      if (comm.rank() == 0) {
        for (value_t v = 0; v + 1 < n; ++v) facts.push_back(Tuple{v, v + 1});
      }
      edge->load_facts(facts);
      Engine engine(comm);
      const auto r = engine.run(program);
      const auto count = fwd->global_size(Version::kFull);  // collective
      if (comm.rank() == 0) {
        nonlinear_iters = r.total_iterations;
        nonlinear_count = count;
      }
    }
  });
  EXPECT_EQ(nonlinear_count, linear_count);
  EXPECT_EQ(linear_count, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  // Doubling closure: ~log2(n) + termination round vs n-1 linear rounds.
  EXPECT_LT(nonlinear_iters, linear_iters / 2);
}

TEST(Engine, MutualRecursionEvenOddReachability) {
  // even(y) <- odd(x),  edge(x, y).
  // odd(y)  <- even(x), edge(x, y).     even(0) seeds.
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* edge = program.relation({.name = "edge", .arity = 2, .jcc = 1});
    auto* even = program.relation({.name = "even", .arity = 1, .jcc = 1});
    auto* odd = program.relation({.name = "odd", .arity = 1, .jcc = 1});
    auto& s = program.stratum();
    s.loop_rules.push_back(JoinRule{
        .a = odd,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = even, .cols = {Expr::col_b(1)}}});
    s.loop_rules.push_back(JoinRule{
        .a = even,
        .a_version = Version::kDelta,
        .b = edge,
        .b_version = Version::kFull,
        .out = {.target = odd, .cols = {Expr::col_b(1)}}});

    // A 6-cycle: distances from 0 alternate even/odd parity forever, and
    // since the cycle is even, the parity classes are disjoint.
    std::vector<Tuple> facts, seed;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 6; ++v) facts.push_back(Tuple{v, (v + 1) % 6});
      seed.push_back(Tuple{0});
    }
    edge->load_facts(facts);
    even->load_facts(seed);
    Engine engine(comm);
    const auto r = engine.run(program);
    EXPECT_TRUE(r.strata[0].reached_fixpoint);
    const auto evens = even->gather_to_root(0);
    const auto odds = odd->gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(evens.size(), 3u);
      ASSERT_EQ(odds.size(), 3u);
      for (const auto& t : evens) EXPECT_EQ(t[0] % 2, 0u);
      for (const auto& t : odds) EXPECT_EQ(t[0] % 2, 1u);
    }
  });
}

TEST(Engine, BaselineConfigDisablesOptimizations) {
  const auto cfg = baseline_config();
  EXPECT_FALSE(cfg.dynamic_join_order);
  EXPECT_FALSE(cfg.balance.enabled);
  // Baseline still computes correct results.
  vmpi::run(4, [&](vmpi::Comm& comm) {
    TcFixture f(comm, 10);
    Engine engine(comm, baseline_config());
    engine.run(f.program);
    EXPECT_EQ(f.path->global_size(Version::kFull), 45u);
  });
}

TEST(Engine, ProfileRecordsIterationsAndPhases) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    TcFixture f(comm, 8);
    Engine engine(comm);
    const auto result = engine.run(f.program);
    // init record + 7 loop iterations.
    EXPECT_EQ(result.profile.iterations, 8u);
    EXPECT_EQ(result.profile.ranks, 2);
    // Dedup/agg saw work (tuples staged), and the termination allreduce
    // moved bytes under "other".
    EXPECT_GT(result.profile.total_bytes[static_cast<std::size_t>(Phase::kOther)], 0u);
    EXPECT_GT(result.profile.modelled_total(), 0.0);
    EXPECT_EQ(result.profile.per_iteration_max.size(), 8u);
  });
}

TEST(Engine, EachRunAccountsForItselfOnly) {
  // An engine that runs many times (serving keeps one for its whole life)
  // reports each run alone: a second run on one engine matches a fresh
  // engine's run on the same input, counter for counter, and its tuple
  // limit does not count the first run's tuples.
  vmpi::run(3, [&](vmpi::Comm& comm) {
    EngineConfig cfg;
    cfg.tuple_limit = 300;  // one 24-chain closure materializes 253 loop tuples
    Engine reused(comm, cfg);
    TcFixture first(comm, 24);
    const auto r1 = reused.run(first.program);
    TcFixture second(comm, 24);
    const auto r2 = reused.run(second.program);
    TcFixture third(comm, 24);
    Engine fresh(comm, cfg);
    const auto r3 = fresh.run(third.program);

    EXPECT_FALSE(r1.aborted_tuple_limit);
    EXPECT_FALSE(r2.aborted_tuple_limit);
    EXPECT_EQ(second.path->global_size(Version::kFull), 24u * 23u / 2u);
    for (const auto* r : {&r1, &r2}) {
      EXPECT_EQ(r->profile.iterations, r3.profile.iterations);
      EXPECT_EQ(r->total_iterations, r3.total_iterations);
      for (const auto f : {&JoinKernelTotals::outer_tuples_shipped, &JoinKernelTotals::probes,
                           &JoinKernelTotals::probe_seeks, &JoinKernelTotals::matches}) {
        EXPECT_EQ(r->kernel.*f, r3.kernel.*f);
        EXPECT_EQ(r->kernel_max.*f, r3.kernel_max.*f);
      }
    }
    EXPECT_GT(r3.kernel.probes, 0u);
    EXPECT_EQ(reused.rank_profile().history().size(), fresh.rank_profile().history().size());
  });
}

TEST(Engine, EmptyProgramRunsCleanly) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Program program(comm);
    Engine engine(comm);
    const auto result = engine.run(program);
    EXPECT_EQ(result.total_iterations, 0u);
  });
}

TEST(Engine, StratumWithOnlyInitRules) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* a = program.relation({.name = "a", .arity = 1, .jcc = 1});
    auto* b = program.relation({.name = "b", .arity = 1, .jcc = 1});
    auto& s = program.stratum();
    s.init_rules.push_back(CopyRule{
        .src = a, .version = Version::kFull, .out = {.target = b, .cols = {Expr::col_a(0)}}});
    std::vector<Tuple> facts;
    if (comm.rank() == 0) facts = {Tuple{1}, Tuple{2}};
    a->load_facts(facts);
    Engine engine(comm);
    const auto result = engine.run(program);
    EXPECT_EQ(result.total_iterations, 0u);
    EXPECT_EQ(b->global_size(Version::kFull), 2u);
    EXPECT_TRUE(result.strata[0].reached_fixpoint);
  });
}

TEST(Engine, ValidatesProgramBeforeRunning) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Program program(comm);
    auto* a = program.relation({.name = "a", .arity = 2, .jcc = 1});
    auto& s = program.stratum();
    s.init_rules.push_back(CopyRule{
        .src = a, .version = Version::kFull, .out = {.target = a, .cols = {Expr::col_a(0)}}});
    Engine engine(comm);
    EXPECT_THROW(engine.run(program), std::invalid_argument);
  });
}

}  // namespace
}  // namespace paralagg::core
