// Relation: config validation, double-hashed distribution, staging, fused
// dedup/aggregation, fact loading, reshuffling.

#include "core/relation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "vmpi/runtime.hpp"

namespace paralagg::core {
namespace {

RelationConfig plain2(const char* name = "r") {
  return {.name = name, .arity = 2, .jcc = 1};
}

RelationConfig min3(const char* name = "agg") {
  return {.name = name,
          .arity = 3,
          .jcc = 1,
          .dep_arity = 1,
          .aggregator = make_min_aggregator()};
}

TEST(RelationConfig, RejectsMalformedShapes) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 0, .jcc = 1}), std::invalid_argument);
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 0}), std::invalid_argument);
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 3}), std::invalid_argument);
    // Aggregated relation without an aggregator.
    EXPECT_THROW(Relation(comm, {.name = "x", .arity = 2, .jcc = 1, .dep_arity = 1}),
                 std::invalid_argument);
    // All columns dependent: no independent key left.
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 1,
                                 .jcc = 1,
                                 .dep_arity = 1,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
    // dep_arity mismatch with the aggregator.
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 4,
                                 .jcc = 1,
                                 .dep_arity = 2,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
  });
}

TEST(RelationConfig, RejectsJoinOnAggregatedColumns) {
  // The paper's structural restriction (§III-A): join columns must be
  // independent.
  vmpi::run(1, [&](vmpi::Comm& comm) {
    EXPECT_THROW(Relation(comm, {.name = "x",
                                 .arity = 3,
                                 .jcc = 3,
                                 .dep_arity = 1,
                                 .aggregator = make_min_aggregator()}),
                 std::invalid_argument);
  });
}

TEST(Relation, DistributionIsDeterministicAndInRange) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    for (value_t v = 0; v < 200; ++v) {
      const Tuple t{v, v * 3};
      const auto b = r.bucket_of(t.view());
      EXPECT_LT(b, r.num_buckets());
      EXPECT_EQ(b, r.bucket_of(t.view()));  // stable
      const int owner = r.owner_rank(t.view());
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, comm.size());
    }
  });
}

TEST(Relation, BucketDependsOnlyOnJoinColumns) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_EQ(r.bucket_of(Tuple{5, 1}.view()), r.bucket_of(Tuple{5, 999}.view()));
  });
}

TEST(Relation, AggregatedOwnerIgnoresDependentColumn) {
  // The communication-avoiding property: tuples agreeing on independent
  // columns co-locate regardless of the partial aggregate they carry —
  // even with sub-bucketing enabled.
  vmpi::run(8, [&](vmpi::Comm& comm) {
    auto cfg = min3();
    cfg.sub_buckets = 4;
    Relation r(comm, cfg);
    for (value_t a = 0; a < 50; ++a) {
      for (value_t b = 0; b < 5; ++b) {
        const int owner = r.owner_rank(Tuple{a, b, 0}.view());
        for (value_t dep : {1ULL, 17ULL, 123456789ULL}) {
          EXPECT_EQ(r.owner_rank(Tuple{a, b, dep}.view()), owner);
        }
      }
    }
  });
}

TEST(Relation, SubBucketsSpreadABucketAcrossRanks) {
  vmpi::run(8, [&](vmpi::Comm& comm) {
    auto cfg = plain2();
    cfg.sub_buckets = 8;
    Relation r(comm, cfg);
    // All tuples share join column 0 -> one bucket; sub-bucketing must
    // spread them over several ranks.
    std::set<int> owners;
    for (value_t v = 0; v < 200; ++v) owners.insert(r.owner_rank(Tuple{42, v}.view()));
    EXPECT_GT(owners.size(), 4u);

    std::vector<int> bucket_ranks;
    r.ranks_of_bucket(r.bucket_of(Tuple{42, 0}.view()), bucket_ranks);
    for (int o : owners) {
      EXPECT_NE(std::find(bucket_ranks.begin(), bucket_ranks.end(), o), bucket_ranks.end());
    }
  });
}

TEST(Relation, NoSubBucketColumnsClampsToOne) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    // arity 2, jcc 1, dep 1: independent columns == join columns, so H2 has
    // no input and sub_buckets must clamp to 1.
    Relation r(comm, {.name = "cc",
                      .arity = 2,
                      .jcc = 1,
                      .dep_arity = 1,
                      .aggregator = make_min_aggregator(),
                      .sub_buckets = 8});
    EXPECT_EQ(r.sub_buckets(), 1);
  });
}

TEST(Relation, PlainMaterializeDeduplicates) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    r.stage(Tuple{1, 2}.view());
    r.stage(Tuple{1, 2}.view());  // duplicate within iteration
    r.stage(Tuple{3, 4}.view());
    auto m1 = r.materialize();
    EXPECT_EQ(m1.staged, 2u);  // pre-deduplicated in staging
    EXPECT_EQ(m1.inserted, 2u);
    EXPECT_EQ(m1.delta_size, 2u);

    r.stage(Tuple{1, 2}.view());  // duplicate across iterations
    r.stage(Tuple{5, 6}.view());
    auto m2 = r.materialize();
    EXPECT_EQ(m2.inserted, 1u);
    EXPECT_EQ(m2.rejected, 1u);
    EXPECT_EQ(r.local_size(Version::kFull), 3u);
    EXPECT_EQ(r.local_size(Version::kDelta), 1u);
  });
}

TEST(Relation, FusedAggregationCollapsesWithinIteration) {
  // Paper §IV-A: local aggregation collapses duplicates of a key before
  // they ever touch the B-tree.
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.stage(Tuple{1, 2, 50}.view());
    r.stage(Tuple{1, 2, 30}.view());
    r.stage(Tuple{1, 2, 40}.view());
    EXPECT_EQ(r.staged_count(), 1u);  // one key
    auto m = r.materialize();
    EXPECT_EQ(m.inserted, 1u);
    const value_t key[] = {1, 2};
    const auto row = r.tree(Version::kFull).find_key(std::span<const value_t>(key, 2));
    ASSERT_FALSE(row.empty());
    EXPECT_EQ(row[2], 30u);
  });
}

TEST(Relation, FusedAggregationAscendsAcrossIterations) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.stage(Tuple{1, 2, 50}.view());
    r.materialize();

    // Worse value: rejected, no delta (Fig. 1 top right).
    r.stage(Tuple{1, 2, 70}.view());
    auto worse = r.materialize();
    EXPECT_EQ(worse.rejected, 1u);
    EXPECT_EQ(worse.delta_size, 0u);

    // Better value: accumulator overwritten in place, delta row emitted.
    r.stage(Tuple{1, 2, 20}.view());
    auto better = r.materialize();
    EXPECT_EQ(better.updated, 1u);
    EXPECT_EQ(better.delta_size, 1u);
    const value_t key[] = {1, 2};
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(key, 2))[2], 20u);
    EXPECT_EQ(r.local_size(Version::kFull), 1u);  // collapsed, not accumulated
  });
}

TEST(Relation, RefreshModeReplacesState) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    Relation r(comm, {.name = "rank",
                      .arity = 2,
                      .jcc = 1,
                      .dep_arity = 1,
                      .aggregator = make_sum_aggregator(),
                      .agg_mode = AggMode::kRefresh});
    r.stage(Tuple{1, 10}.view());
    r.stage(Tuple{1, 5}.view());  // summed within the round
    r.stage(Tuple{2, 7}.view());
    r.materialize();
    const value_t k1[] = {1};
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(k1, 1))[1], 15u);

    // Next round: key 2 not restaged -> dropped (Jacobi replacement).
    r.stage(Tuple{1, 3}.view());
    r.materialize();
    EXPECT_EQ(r.tree(Version::kFull).find_key(std::span<const value_t>(k1, 1))[1], 3u);
    const value_t k2[] = {2};
    EXPECT_TRUE(r.tree(Version::kFull).find_key(std::span<const value_t>(k2, 1)).empty());
  });
}

TEST(Relation, LoadFactsRoutesToOwners) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    // Every rank contributes a disjoint slice.
    std::vector<Tuple> slice;
    for (value_t v = static_cast<value_t>(comm.rank()); v < 100;
         v += static_cast<value_t>(comm.size())) {
      slice.push_back(Tuple{v, v + 1});
    }
    r.load_facts(slice);
    EXPECT_EQ(r.global_size(Version::kFull), 100u);
    EXPECT_EQ(r.global_size(Version::kDelta), 100u);  // delta == initial facts
    // Every local tuple is owned by this rank.
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      EXPECT_EQ(r.owner_rank(t), comm.rank());
    });
  });
}

TEST(Relation, GatherToRootCollectsEverythingSorted) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 50; ++v) slice.push_back(Tuple{v, v * 2});
    }
    r.load_facts(slice);
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 50u);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      EXPECT_EQ(rows[10], (Tuple{10, 20}));
    } else {
      EXPECT_TRUE(rows.empty());
    }
  });
}

TEST(Relation, ReshuffleKeepsContentAndMovesOwnership) {
  vmpi::run(8, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2("skewed"));
    // Hot key 7: everything in one bucket.
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      for (value_t v = 0; v < 400; ++v) slice.push_back(Tuple{7, v});
    }
    r.load_facts(slice);
    const auto before_max =
        comm.allreduce<std::uint64_t>(r.local_size(Version::kFull), vmpi::ReduceOp::kMax);
    EXPECT_EQ(before_max, 400u);  // all on one rank

    r.reshuffle_to_sub_buckets(8);
    EXPECT_EQ(r.global_size(Version::kFull), 400u);
    EXPECT_EQ(r.global_size(Version::kDelta), 400u);  // delta travels too
    const auto after_max =
        comm.allreduce<std::uint64_t>(r.local_size(Version::kFull), vmpi::ReduceOp::kMax);
    EXPECT_LT(after_max, 200u);  // spread out
    // Ownership must be consistent under the new mapping.
    r.tree(Version::kFull).for_each([&](std::span<const value_t> t) {
      EXPECT_EQ(r.owner_rank(t), comm.rank());
    });
  });
}

TEST(Relation, CheckpointRoundTrips) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_test.bin";
  std::vector<Tuple> expected;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    for (value_t v = static_cast<value_t>(comm.rank()); v < 200;
         v += static_cast<value_t>(comm.size())) {
      slice.push_back(Tuple{v, v * 7});
    }
    r.load_facts(slice);
    r.save_checkpoint(path);
    const auto rows = r.gather_to_root(0);  // collective
    if (comm.rank() == 0) expected = rows;
  });
  // Reload at a *different* rank count and sub-bucket layout.
  vmpi::run(3, [&](vmpi::Comm& comm) {
    auto cfg = plain2();
    cfg.sub_buckets = 4;
    Relation r(comm, cfg);
    r.load_checkpoint(path);
    EXPECT_EQ(r.global_size(Version::kFull), 200u);
    EXPECT_EQ(r.global_size(Version::kDelta), 200u);  // reload seeds the delta
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(rows, expected);
    }
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointAggregatedRelation) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_agg.bin";
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) {
      slice = {Tuple{1, 2, 50}, Tuple{1, 2, 30}, Tuple{3, 4, 7}};
    }
    r.load_facts(slice);
    r.save_checkpoint(path);
  });
  vmpi::run(5, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.load_checkpoint(path);
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 2u);
      EXPECT_EQ(rows[0], (Tuple{1, 2, 30}));  // collapsed accumulator survived
      EXPECT_EQ(rows[1], (Tuple{3, 4, 7}));
    }
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointLoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_THROW(r.load_checkpoint(path), std::runtime_error);
  });
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    EXPECT_THROW(r.load_checkpoint("/nonexistent/nope.bin"), std::runtime_error);
  });
  std::remove(path.c_str());
}

TEST(Relation, CheckpointArityMismatchRejected) {
  const std::string path = testing::TempDir() + "/paralagg_ckpt_arity.bin";
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) slice = {Tuple{1, 2}};
    r.load_facts(slice);
    r.save_checkpoint(path);
  });
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r3(comm, {.name = "r3", .arity = 3, .jcc = 1});
    EXPECT_THROW(r3.load_checkpoint(path), std::runtime_error);
  });
  std::remove(path.c_str());
}

// -- bulk fact loading ---------------------------------------------------------

void expect_valid_trees(const Relation& r) {
  for (const Version v : {Version::kFull, Version::kDelta}) {
    const auto& t = r.tree(v);
    EXPECT_NO_THROW(EXPECT_EQ(t.check_invariants(), t.size()));
  }
}

std::vector<Tuple> local_rows(const Relation& r, Version v) {
  std::vector<Tuple> out;
  r.tree(v).for_each([&](std::span<const value_t> row) { out.emplace_back(row); });
  return out;
}

TEST(Relation, LoadFactsDropsRowsSentFromSeveralRanks) {
  vmpi::run(4, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    const auto me = static_cast<value_t>(comm.rank());
    // Every rank sends the same three rows, twice, plus one of its own.
    std::vector<Tuple> slice = {Tuple{1, 2}, Tuple{3, 4}, Tuple{5, 6}, Tuple{3, 4},
                                Tuple{1, 2}, Tuple{5, 6}, Tuple{100 + me, 0}};
    r.load_facts(slice);
    expect_valid_trees(r);
    EXPECT_EQ(local_rows(r, Version::kFull), local_rows(r, Version::kDelta));
    const auto rows = r.gather_to_root(0);
    if (comm.rank() == 0) {
      EXPECT_EQ(rows, (std::vector<Tuple>{Tuple{1, 2}, Tuple{3, 4}, Tuple{5, 6}, Tuple{100, 0},
                                          Tuple{101, 0}, Tuple{102, 0}, Tuple{103, 0}}));
    }
  });
}

TEST(Relation, LoadFactsFoldMatchesStagingFold) {
  // Equal keys with different dependent values: the sort-and-fold at load
  // must give what staging + materialize gives for the same rows.
  const std::vector<RelationConfig> configs = {
      min3("min"),
      {.name = "sum",
       .arity = 3,
       .jcc = 1,
       .dep_arity = 1,
       .aggregator = make_sum_aggregator(),
       .agg_mode = AggMode::kRefresh}};
  constexpr int kRanks = 4;
  const auto rows_from = [](int rank) {
    std::vector<Tuple> out;
    for (value_t k = 0; k < 60; ++k) {
      for (value_t rep = 0; rep < 1 + k % 3; ++rep) {
        const value_t v = storage::mix64(k * 31 + rep * 7 + static_cast<value_t>(rank)) % 1000;
        out.push_back(Tuple{k % 7, k, v});
      }
    }
    return out;
  };
  for (const auto& cfg : configs) {
    std::vector<Tuple> staged;
    vmpi::run(1, [&](vmpi::Comm& comm) {
      Relation ref(comm, cfg);
      for (int rank = 0; rank < kRanks; ++rank) {
        for (const auto& t : rows_from(rank)) ref.stage(t.view());
      }
      ref.materialize();
      staged = ref.gather_to_root(0);
    });
    ASSERT_EQ(staged.size(), 60u);
    vmpi::run(kRanks, [&](vmpi::Comm& comm) {
      Relation r(comm, cfg);
      r.load_facts(rows_from(comm.rank()));
      expect_valid_trees(r);
      const bool refresh = cfg.agg_mode == AggMode::kRefresh;
      EXPECT_EQ(r.global_size(Version::kDelta), refresh ? 0u : 60u) << cfg.name;
      const auto rows = r.gather_to_root(0);
      if (comm.rank() == 0) {
        EXPECT_EQ(rows, staged) << cfg.name;
      }
    });
  }
}

TEST(Relation, LoadFactsCountsOneSupportEventPerRow) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    Relation plain(comm, plain2());
    Relation agg(comm, min3());
    plain.enable_support_counts();
    agg.enable_support_counts();
    // Each rank sends {1,2} once; rank 0 also sends {7,8} twice.
    std::vector<Tuple> ps = {Tuple{1, 2}};
    // Each rank sends key (1,2) with its own value; rank 0 sends it twice.
    std::vector<Tuple> as = {Tuple{1, 2, 10 + static_cast<value_t>(comm.rank())}};
    if (comm.rank() == 0) {
      ps.insert(ps.end(), {Tuple{7, 8}, Tuple{7, 8}});
      as.push_back(Tuple{1, 2, 5});
    }
    plain.load_facts(ps);
    agg.load_facts(as);
    expect_valid_trees(plain);
    expect_valid_trees(agg);
    const Tuple p12{1, 2}, p78{7, 8};
    if (plain.owner_rank(p12.view()) == comm.rank()) {
      EXPECT_EQ(plain.support_of(p12.view()), 3u);
    }
    if (plain.owner_rank(p78.view()) == comm.rank()) {
      EXPECT_EQ(plain.support_of(p78.view()), 2u);
    }
    const Tuple a12{1, 2, 0};
    if (agg.owner_rank(a12.view()) == comm.rank()) {
      EXPECT_EQ(agg.support_of(a12.prefix(2)), 4u);
      EXPECT_EQ(agg.tree(Version::kFull).find_key(a12.prefix(2))[2], 5u);
    }
  });
}

TEST(Relation, LoadFactsIntoPopulatedRelationMerges) {
  vmpi::run(3, [&](vmpi::Comm& comm) {
    const bool lead = comm.rank() == 0;
    Relation plain(comm, plain2());
    std::vector<Tuple> first, second;
    if (lead) {
      for (value_t v = 1; v <= 10; ++v) first.push_back(Tuple{v, v});
      for (value_t v = 5; v <= 15; ++v) second.push_back(Tuple{v, v});
    }
    plain.load_facts(first);
    plain.load_facts(second);
    expect_valid_trees(plain);
    EXPECT_EQ(plain.global_size(Version::kFull), 15u);
    EXPECT_EQ(plain.global_size(Version::kDelta), 5u);  // only the new rows
    for (const auto& t : local_rows(plain, Version::kDelta)) EXPECT_GT(t[0], 10u);

    Relation agg(comm, min3());
    first.clear();
    second.clear();
    if (lead) {
      for (value_t k = 0; k < 10; ++k) first.push_back(Tuple{k, k, 50});
      for (value_t k = 0; k < 10; ++k) second.push_back(Tuple{k, k, k < 5 ? 20u : 70u});
      for (value_t k = 10; k < 13; ++k) second.push_back(Tuple{k, k, 1});
    }
    agg.load_facts(first);
    agg.load_facts(second);
    expect_valid_trees(agg);
    EXPECT_EQ(agg.global_size(Version::kFull), 13u);
    EXPECT_EQ(agg.global_size(Version::kDelta), 8u);  // 5 ascended + 3 new
    for (const auto& t : local_rows(agg, Version::kDelta)) {
      EXPECT_TRUE(t[0] < 5 || t[0] >= 10) << t.to_string();
    }
    const auto rows = agg.gather_to_root(0);
    if (lead) {
      ASSERT_EQ(rows.size(), 13u);
      for (const auto& t : rows) {
        EXPECT_EQ(t[2], t[0] < 5 ? 20u : t[0] < 10 ? 50u : 1u) << t.to_string();
      }
    }
  });
}

/// Everything a batch can change on this rank: full rows, delta rows and
/// the support map (sorted).
struct LocalState {
  std::vector<Tuple> full, delta;
  std::vector<std::pair<Tuple, std::uint64_t>> support;
  bool operator==(const LocalState&) const = default;
};

LocalState local_state(const Relation& r) {
  LocalState s{local_rows(r, Version::kFull), local_rows(r, Version::kDelta), {}};
  s.support.assign(r.support_counts().begin(), r.support_counts().end());
  std::sort(s.support.begin(), s.support.end());
  return s;
}

TEST(Relation, UndoBatchRestoresEveryPartAndCommitKeepsTheBatch) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, min3());
    r.enable_support_counts();
    std::vector<Tuple> slice;
    for (value_t k = static_cast<value_t>(comm.rank()); k < 300; k += 2) {
      slice.push_back(Tuple{k % 11, k, 100 + k});
    }
    r.load_facts(slice);
    // A materialize so that delta differs from full.
    for (value_t k = 0; k < 300; k += 7) {
      const Tuple t{k % 11, k, k % 2 == 0 ? value_t{1} : value_t{1000}};
      if (r.owner_rank(t.view()) == comm.rank()) r.stage(t.view());
    }
    r.materialize();
    const auto before = local_state(r);
    ASSERT_NE(before.full, before.delta);

    // Mutate every part of the state through every journaled call: new
    // keys, ascended keys, a retracted key (full, delta and support), a
    // released support count and a direct insert.
    const auto mutate = [&] {
      for (value_t k = 280; k < 340; ++k) {
        const Tuple t{k % 11, k, 0};
        if (r.owner_rank(t.view()) == comm.rank()) r.stage(t.view());
      }
      r.materialize();
      const Tuple gone{3, 3, 0};
      if (r.owner_rank(gone.view()) == comm.rank()) {
        EXPECT_FALSE(r.retract_key(gone.prefix(2)).empty());
      }
      const Tuple released{5, 5, 0};
      if (r.owner_rank(released.view()) == comm.rank()) {
        EXPECT_GT(r.support_of(released.prefix(2)), 0u);
        r.support_release(released.prefix(2), 1);
      }
      const Tuple direct{7, 1000, 9};
      if (r.owner_rank(direct.view()) == comm.rank()) {
        EXPECT_TRUE(r.insert_full(direct.view()));
      }
    };

    r.begin_batch();
    mutate();
    EXPECT_NE(local_state(r), before);
    // One entry per key touched: 60 staged keys (20 of them already
    // stored), the retracted and released keys, and the direct insert.
    const auto entries = comm.allreduce<std::uint64_t>(r.undo_entries(), vmpi::ReduceOp::kSum);
    EXPECT_EQ(entries, 60u + 3u);
    r.undo_batch();
    expect_valid_trees(r);
    EXPECT_EQ(local_state(r), before);
    EXPECT_EQ(r.undo_entries(), 0u);

    // reset() inside a batch moves the containers aside: a key touched
    // before it is restored from its log entry on top of them.
    r.begin_batch();
    mutate();
    r.reset();
    for (value_t k = 0;; ++k) {  // one derivation into the emptied relation
      const Tuple t{k, k, 1};
      if (r.owner_rank(t.view()) != comm.rank()) continue;
      r.stage(t.view());
      r.materialize();
      break;
    }
    r.undo_batch();
    expect_valid_trees(r);
    EXPECT_EQ(local_state(r), before);

    // Commit keeps the batch: the same state as mutating unjournaled.
    r.begin_batch();
    mutate();
    const auto batched = local_state(r);
    r.commit_batch();
    EXPECT_EQ(local_state(r), batched);
    EXPECT_EQ(r.undo_entries(), 0u);
  });
}

TEST(Relation, ReshuffleToSameFanoutIsNoop) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Relation r(comm, plain2());
    std::vector<Tuple> slice;
    if (comm.rank() == 0) slice.push_back(Tuple{1, 2});
    r.load_facts(slice);
    EXPECT_EQ(r.reshuffle_to_sub_buckets(1), 0u);
    EXPECT_EQ(r.global_size(Version::kFull), 1u);
  });
}

}  // namespace
}  // namespace paralagg::core
