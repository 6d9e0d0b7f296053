// RA kernels: distributed binary join (intra-bucket replication, local
// join, all-to-all) and copy/project, plus rule validation.

#include "core/ra_op.hpp"

#include <gtest/gtest.h>

#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

TEST(ExecuteJoin, JoinsOnPrefixAndRoutesOutputs) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});

    // r = {(k, k*10)}, s = {(k, k*100)} for k in 0..19.
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 20; ++k) {
        rf.push_back(Tuple{k, k * 10});
        sf.push_back(Tuple{k, k * 100});
      }
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    const auto stats = execute_join(comm, profile, rule);
    out.materialize();

    EXPECT_EQ(out.global_size(Version::kFull), 20u);
    const auto total_matches =
        comm.allreduce<std::uint64_t>(stats.matches, vmpi::ReduceOp::kSum);
    EXPECT_EQ(total_matches, 20u);

    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_EQ(row[1], row[0] * 10);
    }
  });
}

TEST(ExecuteJoin, ProducesCrossProductWithinKeys) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      // Key 5 has 3 r-rows and 4 s-rows -> 12 joined pairs.
      for (value_t i = 0; i < 3; ++i) rf.push_back(Tuple{5, i});
      for (value_t j = 0; j < 4; ++j) sf.push_back(Tuple{5, 100 + j});
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();
    EXPECT_EQ(out.global_size(Version::kFull), 12u);
  });
}

TEST(ExecuteJoin, FilterDropsPairs) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf;
    if (comm.rank() == 0) {
      for (value_t i = 0; i < 10; ++i) rf.push_back(Tuple{1, i});
    }
    r.load_facts(rf);

    RankProfile profile;
    // Self-join with ordering filter: pairs (i, j), i < j -> C(10,2) = 45.
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &r,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(1)),
    };
    execute_join(comm, profile, rule);
    out.materialize();
    EXPECT_EQ(out.global_size(Version::kFull), 45u);
  });
}

TEST(ExecuteJoin, RespectsVersionSelection) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> r1, sf;
    if (comm.rank() == 0) {
      r1.push_back(Tuple{1, 1});
      for (value_t k = 1; k <= 2; ++k) sf.push_back(Tuple{k, k});
    }
    r.load_facts(r1);  // delta = {(1,1)}
    s.load_facts(sf);
    // Second batch: (2,2) becomes the new delta; (1,1) moves to full-only.
    // Every rank knows the batch; only the owner stages it.
    const Tuple t22{2, 2};
    if (r.owner_rank(t22.view()) == comm.rank()) r.stage(t22.view());
    r.materialize();

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kDelta,  // only (2,2)
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_b(1)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0], (Tuple{2, 2}));
    }
  });
}

TEST(ExecuteJoin, ForcedOrderOverridesRule) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation small(comm, {.name = "small", .arity = 2, .jcc = 1});
    Relation big(comm, {.name = "big", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> smallf, bigf;
    if (comm.rank() == 0) {
      smallf.push_back(Tuple{1, 1});
      for (value_t k = 0; k < 100; ++k) bigf.push_back(Tuple{k, k});
    }
    small.load_facts(smallf);
    big.load_facts(bigf);

    RankProfile profile;
    JoinRule rule{
        .a = &small,
        .a_version = Version::kFull,
        .b = &big,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
    };
    // Dynamic: small side shipped.
    const auto dyn = execute_join(comm, profile, rule);
    EXPECT_TRUE(dyn.a_was_outer);
    const auto dyn_shipped =
        comm.allreduce<std::uint64_t>(dyn.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_EQ(dyn_shipped, 1u);

    // Forced B-outer: the big side is serialized — the baseline mistake.
    const auto forced = execute_join(comm, profile, rule, JoinOrderPolicy::kFixedBOuter);
    EXPECT_FALSE(forced.a_was_outer);
    const auto forced_shipped =
        comm.allreduce<std::uint64_t>(forced.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_EQ(forced_shipped, 100u);
    out.materialize();
  });
}

TEST(ExecuteJoin, SubBucketedInnerReceivesReplicas) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // Inner relation with a hot bucket spread over 4 sub-buckets; the outer
    // tuple matching that bucket must be replicated to every holder.
    Relation inner(comm, {.name = "inner", .arity = 2, .jcc = 1, .sub_buckets = 4});
    Relation outer(comm, {.name = "outer", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> innerf, outerf;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 100; ++v) innerf.push_back(Tuple{7, v});
      outerf.push_back(Tuple{7, 999});
    }
    inner.load_facts(innerf);
    outer.load_facts(outerf);

    RankProfile profile;
    JoinRule rule{
        .a = &outer,
        .a_version = Version::kFull,
        .b = &inner,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}},
        .order = JoinOrderPolicy::kFixedAOuter,
    };
    const auto stats = execute_join(comm, profile, rule);
    out.materialize();
    // All 100 pairs found despite the inner bucket spanning ranks.
    EXPECT_EQ(out.global_size(Version::kFull), 100u);
    // The single outer tuple was shipped once per sub-bucket holder.
    const auto shipped =
        comm.allreduce<std::uint64_t>(stats.outer_tuples_shipped, vmpi::ReduceOp::kSum);
    EXPECT_GT(shipped, 1u);
  });
}

TEST(ExecuteCopy, ProjectsAndFilters) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Relation src(comm, {.name = "src", .arity = 3, .jcc = 1});
    Relation dst(comm, {.name = "dst", .arity = 2, .jcc = 1});
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 30; ++v) facts.push_back(Tuple{v, v * 2, v % 3});
    }
    src.load_facts(facts);

    RankProfile profile;
    CopyRule rule{
        .src = &src,
        .version = Version::kFull,
        .out = {.target = &dst, .cols = {Expr::col_a(1), Expr::col_a(0)}},
        .filter = Expr::eq(Expr::col_a(2), Expr::constant(0)),  // keep v % 3 == 0
    };
    execute_copy(comm, profile, rule);
    dst.materialize();
    EXPECT_EQ(dst.global_size(Version::kFull), 10u);
    const auto rows = dst.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_EQ(row[0], row[1] * 2);
    }
  });
}

TEST(ExecuteCopy, IntoAggregatedTargetAggregatesLocally) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation src(comm, {.name = "src", .arity = 2, .jcc = 1});
    Relation agg(comm, {.name = "agg",
                        .arity = 2,
                        .jcc = 1,
                        .dep_arity = 1,
                        .aggregator = make_min_aggregator()});
    std::vector<Tuple> facts;
    if (comm.rank() == 0) {
      // Key 1 with many values; min must win.
      for (value_t v = 10; v <= 50; v += 10) facts.push_back(Tuple{1, v});
    }
    src.load_facts(facts);

    RankProfile profile;
    CopyRule rule{
        .src = &src,
        .version = Version::kFull,
        .out = {.target = &agg, .cols = {Expr::constant(7), Expr::col_a(1)}},
    };
    execute_copy(comm, profile, rule);
    agg.materialize();
    const auto rows = agg.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0], (Tuple{7, 10}));
    }
  });
}

TEST(ExecuteJoin, AntijoinEmitsOnAbsence) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 2, .jcc = 1});
    Relation blocked(comm, {.name = "blocked", .arity = 1, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> af, bf;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 20; ++v) af.push_back(Tuple{v, v * 10});
      for (value_t v = 0; v < 20; v += 3) bf.push_back(Tuple{v});  // 0,3,6,...
    }
    all.load_facts(af);
    blocked.load_facts(bf);

    RankProfile profile;
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &blocked,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1)}},
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    // 20 keys minus the 7 multiples of 3.
    EXPECT_EQ(out.global_size(Version::kFull), 13u);
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      for (const auto& row : rows) EXPECT_NE(row[0] % 3, 0u) << row[0];
    }
  });
}

TEST(ExecuteJoin, AntijoinPreFilterGatesEmission) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 1, .jcc = 1});
    Relation blocked(comm, {.name = "blocked", .arity = 1, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 1, .jcc = 1});
    std::vector<Tuple> af;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 10; ++v) af.push_back(Tuple{v});
    }
    all.load_facts(af);
    blocked.load_facts({});  // nothing blocked: absence holds everywhere

    RankProfile profile;
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &blocked,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0)}},
        .pre_filter = Expr::less(Expr::col_a(0), Expr::constant(4)),
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    // Without the pre-filter every row would emit; with it only 0..3 do.
    EXPECT_EQ(out.global_size(Version::kFull), 4u);
  });
}

TEST(ExecuteJoin, AntijoinFilterRefinesBlockingMatches) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 2, .jcc = 1});
    Relation cap(comm, {.name = "cap", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> af, cf;
    if (comm.rank() == 0) {
      af = {Tuple{1, 5}, Tuple{2, 5}, Tuple{3, 5}};
      // Key 1 has a blocking cap above the row value, key 2 below it.
      cf = {Tuple{1, 9}, Tuple{2, 3}};
    }
    all.load_facts(af);
    cap.load_facts(cf);

    RankProfile profile;
    // Blocked iff a cap row for the key has cap-value > row-value.
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &cap,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1)}},
        .filter = Expr::less(Expr::col_a(1), Expr::col_b(1)),
        .anti = true,
    };
    execute_join(comm, profile, rule);
    out.materialize();
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0][0], 2u);  // cap 3 < 5: not blocking
      EXPECT_EQ(rows[1][0], 3u);  // no cap at all
    }
  });
}

/// Sum of one per-rank counter over the world.
std::uint64_t world_sum(vmpi::Comm& comm, std::uint64_t v) {
  return comm.allreduce<std::uint64_t>(v, vmpi::ReduceOp::kSum);
}

TEST(ExecuteJoin, SortedBatchIssuesOneSeekPerDistinctJoinKey) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 3, .jcc = 1});
    // Outer r: n = 12 rows over k = 4 join keys (3 rows per key).  Inner s:
    // 2 rows per key, plus a key the outer never names.
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 4; ++k) {
        for (value_t i = 0; i < 3; ++i) rf.push_back(Tuple{k, 10 * k + i});
      }
      for (value_t k = 0; k < 5; ++k) {
        for (value_t j = 0; j < 2; ++j) sf.push_back(Tuple{k, 100 * k + j});
      }
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1), Expr::col_b(1)}},
    };
    const auto stats = execute_join(comm, profile, rule, JoinOrderPolicy::kFixedAOuter);
    out.materialize();

    // Every outer row probes, but rows sharing a key share one seek: a
    // kernel that descended once per row would report 12 seeks.
    EXPECT_EQ(world_sum(comm, stats.probes), 12u);
    EXPECT_EQ(world_sum(comm, stats.probe_seeks), 4u);
    EXPECT_EQ(world_sum(comm, stats.matches), 24u);
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      std::vector<Tuple> want;
      for (value_t k = 0; k < 4; ++k) {
        for (value_t i = 0; i < 3; ++i) {
          for (value_t j = 0; j < 2; ++j) want.push_back(Tuple{k, 10 * k + i, 100 * k + j});
        }
      }
      EXPECT_EQ(rows, want);
    }
  });
}

TEST(ExecuteJoin, AntijoinPreFilterRejectedKeyGroupIssuesNoSeek) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation all(comm, {.name = "all", .arity = 2, .jcc = 1});
    Relation blocked(comm, {.name = "blocked", .arity = 1, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    // 4 keys x 3 rows; the pre-filter admits keys 0 and 1 only, and key 1
    // is blocked.
    std::vector<Tuple> af, bf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 4; ++k) {
        for (value_t i = 0; i < 3; ++i) af.push_back(Tuple{k, 10 * k + i});
      }
      bf.push_back(Tuple{1});
    }
    all.load_facts(af);
    blocked.load_facts(bf);

    RankProfile profile;
    JoinRule rule{
        .a = &all,
        .a_version = Version::kFull,
        .b = &blocked,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_a(0), Expr::col_a(1)}},
        .pre_filter = Expr::less(Expr::col_a(0), Expr::constant(2)),
        .anti = true,
    };
    const auto stats = execute_join(comm, profile, rule);
    out.materialize();

    // Keys 2 and 3 are rejected whole by the pre-filter and never touch
    // the tree; keys 0 and 1 seek once each, not once per row.
    EXPECT_EQ(world_sum(comm, stats.probes), 12u);
    EXPECT_EQ(world_sum(comm, stats.probe_seeks), 2u);
    EXPECT_EQ(world_sum(comm, stats.matches), 3u);
    const auto rows = out.gather_to_root(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(rows, (std::vector<Tuple>{Tuple{0, 0}, Tuple{0, 1}, Tuple{0, 2}}));
    }
  });
}

TEST(ValidateRule, AntijoinShapeErrors) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation sub(comm, {.name = "sub", .arity = 2, .jcc = 1, .sub_buckets = 4});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    // Head referencing the negated side.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_b(1)}},
                               .anti = true}),
        std::invalid_argument);
    // Sub-bucketed negated side.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &sub,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .anti = true}),
        std::invalid_argument);
    // pre_filter on a normal join.
    EXPECT_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .pre_filter = Expr::constant(1)}),
        std::invalid_argument);
    // Well-formed antijoin passes.
    EXPECT_NO_THROW(
        validate_rule(JoinRule{.a = &r,
                               .b = &r,
                               .out = {.target = &out,
                                       .cols = {Expr::col_a(0), Expr::col_a(1)}},
                               .anti = true}));
  });
}

TEST(ValidateRule, CatchesShapeErrors) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s2(comm, {.name = "s2", .arity = 2, .jcc = 2});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});

    // jcc mismatch between sides.
    EXPECT_THROW(validate_rule(JoinRule{.a = &r,
                                        .b = &s2,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_a(0), Expr::col_b(0)}}}),
                 std::invalid_argument);
    // Head arity mismatch.
    EXPECT_THROW(
        validate_rule(JoinRule{
            .a = &r, .b = &r, .out = {.target = &out, .cols = {Expr::col_a(0)}}}),
        std::invalid_argument);
    // Out-of-range column reference.
    EXPECT_THROW(validate_rule(JoinRule{.a = &r,
                                        .b = &r,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_a(5), Expr::col_b(0)}}}),
                 std::invalid_argument);
    // Copy referencing side B.
    EXPECT_THROW(validate_rule(CopyRule{.src = &r,
                                        .out = {.target = &out,
                                                .cols = {Expr::col_b(0), Expr::col_a(0)}}}),
                 std::invalid_argument);
    // Well-formed rules pass.
    EXPECT_NO_THROW(validate_rule(JoinRule{
        .a = &r, .b = &r, .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_b(1)}}}));
    EXPECT_NO_THROW(validate_rule(CopyRule{
        .src = &r, .out = {.target = &out, .cols = {Expr::col_a(1), Expr::col_a(0)}}}));
  });
}

TEST(ExecuteJoin, PhaseBytesAttributedToIntraBucketAndAllToAll) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "r", .arity = 2, .jcc = 1});
    Relation s(comm, {.name = "s", .arity = 2, .jcc = 1});
    Relation out(comm, {.name = "out", .arity = 2, .jcc = 1});
    std::vector<Tuple> rf, sf;
    if (comm.rank() == 0) {
      for (value_t k = 0; k < 64; ++k) {
        rf.push_back(Tuple{k, k});
        sf.push_back(Tuple{k, k + 1});
      }
    }
    r.load_facts(rf);
    s.load_facts(sf);

    RankProfile profile;
    JoinRule rule{
        .a = &r,
        .a_version = Version::kFull,
        .b = &s,
        .b_version = Version::kFull,
        .out = {.target = &out, .cols = {Expr::col_b(1), Expr::col_a(0)}},
    };
    execute_join(comm, profile, rule);
    out.materialize();

    const auto& rec = profile.current();
    // Output tuples hash to new buckets -> remote bytes in the all-to-all
    // phase on at least one rank.
    const auto a2a = comm.allreduce<std::uint64_t>(
        rec.bytes[static_cast<std::size_t>(Phase::kAllToAll)], vmpi::ReduceOp::kSum);
    EXPECT_GT(a2a, 0u);
    // Both sides share the bucket map with one sub-bucket each, so the
    // intra-bucket phase must be fully local: zero remote bytes.
    const auto intra = comm.allreduce<std::uint64_t>(
        rec.bytes[static_cast<std::size_t>(Phase::kIntraBucket)], vmpi::ReduceOp::kSum);
    EXPECT_EQ(intra, 0u);
  });
}

}  // namespace
}  // namespace paralagg::core
