// Determinism: every collective folds in rank order and every query result
// is bit-identical across runs and rank counts.  Nondeterminism in a
// distributed engine is a debugging catastrophe; PARALAGG's design (no
// wall-clock-dependent decisions, deterministic reductions) makes this
// testable.

#include <gtest/gtest.h>

#include <string>

#include "queries/cc.hpp"
#include "queries/pagerank.hpp"
#include "queries/sssp.hpp"
#include "queries/tc.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using queries::Tuple;

TEST(Determinism, RepeatedSsspRunsAreBitIdentical) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 21});
  const auto sources = g.pick_sources(3);
  std::vector<Tuple> first;
  for (int repeat = 0; repeat < 3; ++repeat) {
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = sources;
      opts.collect_distances = true;
      const auto result = run_sssp(comm, g, opts);
      if (comm.rank() == 0) {
        if (repeat == 0) {
          first = result.distances;
        } else {
          EXPECT_EQ(result.distances, first) << "repeat " << repeat;
        }
      }
    });
  }
}

TEST(Determinism, IterationCountIndependentOfRankCount) {
  const auto g = graph::make_grid(9, 9, 10, 22);
  std::vector<std::size_t> iters;
  for (const int ranks : {1, 2, 4, 8}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = {0};
      const auto result = run_sssp(comm, g, opts);
      if (comm.rank() == 0) iters.push_back(result.iterations);
    });
  }
  for (const auto it : iters) EXPECT_EQ(it, iters[0]);
}

TEST(Determinism, CcIdenticalUnderBalancingKnobs) {
  // Balancing moves tuples between ranks but must never change answers.
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 4, .seed = 23});
  std::vector<Tuple> reference_labels;
  struct Knobs {
    int sub_buckets;
    bool balance;
  };
  const Knobs variants[] = {{1, false}, {1, true}, {4, false}, {8, true}};
  bool have_reference = false;
  for (const auto& [sub_buckets, balance] : variants) {
    vmpi::run(4, [&](vmpi::Comm& comm) {
      queries::CcOptions opts;
      opts.tuning.edge_sub_buckets = sub_buckets;
      opts.tuning.balance_edges = balance;
      opts.collect_labels = true;
      const auto result = run_cc(comm, g, opts);
      if (comm.rank() == 0) {
        if (!have_reference) {
          reference_labels = result.labels;
        } else {
          EXPECT_EQ(result.labels, reference_labels)
              << "sub=" << sub_buckets << " balance=" << balance;
        }
      }
    });
    have_reference = true;
  }
}

TEST(Determinism, PagerankStableAcrossRankCounts) {
  const auto g = graph::make_rmat({.scale = 7, .edge_factor = 4, .seed = 24});
  std::vector<Tuple> at1;
  for (const int ranks : {1, 4}) {
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      queries::PagerankOptions opts;
      opts.rounds = 8;
      opts.collect_ranks = true;
      const auto result = run_pagerank(comm, g, opts);
      if (comm.rank() == 0) {
        if (ranks == 1) {
          at1 = result.ranks;
        } else {
          EXPECT_EQ(result.ranks, at1);
        }
      }
    });
  }
}

TEST(Determinism, DynamicJoinOrderDoesNotAffectResults) {
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 25});
  const auto sources = g.pick_sources(2);
  std::vector<Tuple> dynamic_rows, fixed_rows;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = sources;
    opts.collect_distances = true;
    const auto dyn = run_sssp(comm, g, opts);
    opts.tuning.engine.dynamic_join_order = false;
    const auto fixed = run_sssp(comm, g, opts);
    if (comm.rank() == 0) {
      dynamic_rows = dyn.distances;
      fixed_rows = fixed.distances;
    }
  });
  EXPECT_EQ(dynamic_rows, fixed_rows);
}

TEST(Determinism, ProfileSummaryIdenticalOnAllRanks) {
  const auto g = graph::make_grid(6, 6, 5, 26);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions opts;
    opts.sources = {0};
    const auto result = run_sssp(comm, g, opts);
    // Every rank computed the same summary: compare a few scalar digests.
    const auto iters = comm.allgather<std::uint64_t>(result.run.profile.iterations);
    const auto bytes = comm.allgather<std::uint64_t>(result.run.profile.bytes_total());
    const auto comm_bytes =
        comm.allgather<std::uint64_t>(result.run.comm_total.total_remote_bytes());
    for (std::size_t r = 1; r < iters.size(); ++r) {
      EXPECT_EQ(iters[r], iters[0]);
      EXPECT_EQ(bytes[r], bytes[0]);
      EXPECT_EQ(comm_bytes[r], comm_bytes[0]);
    }
  });
}

TEST(Determinism, FixpointsIdenticalAcrossSchedulesAndTopologies) {
  // The topology refactor's core invariant: node grouping, collective
  // schedule, and exchange routing are pure communication choices — every
  // combination must reach the bit-identical fixpoint because all folds
  // stay in rank order.
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 5, .seed = 29});
  const auto sources = g.pick_sources(2);
  constexpr int kRanks = 8;

  struct Variant {
    const char* name;
    vmpi::CollectiveSchedule schedule;
    int nodes;  // 0 -> flat topology
    core::ExchangeAlgorithm exchange;
    std::uint64_t skew_threshold;  // 0 -> hybrid skew plans off
  };
  // The +skew variants use an absurdly low hot threshold so hot sets engage
  // (and churn) on an ordinary graph — the hybrid routing must still land on
  // the same fixpoint bit for bit.
  const Variant variants[] = {
      {"linear/flat/dense", vmpi::CollectiveSchedule::kLinear, 0,
       core::ExchangeAlgorithm::kDense, 0},
      {"rd/flat/dense", vmpi::CollectiveSchedule::kRecursiveDoubling, 0,
       core::ExchangeAlgorithm::kDense, 0},
      {"rd/flat/bruck", vmpi::CollectiveSchedule::kRecursiveDoubling, 0,
       core::ExchangeAlgorithm::kBruck, 0},
      {"rd/2x4/dense", vmpi::CollectiveSchedule::kRecursiveDoubling, 2,
       core::ExchangeAlgorithm::kDense, 0},
      {"rd/flat/dense+skew", vmpi::CollectiveSchedule::kRecursiveDoubling, 0,
       core::ExchangeAlgorithm::kDense, 16},
      {"rd/4x2/dense+skew", vmpi::CollectiveSchedule::kRecursiveDoubling, 4,
       core::ExchangeAlgorithm::kDense, 16},
  };

  // reference[q] from the first variant; later variants must match.
  std::vector<Tuple> reference[4];
  bool have_reference = false;
  for (const auto& v : variants) {
    vmpi::RunOptions options;
    options.schedule = v.schedule;
    options.topology = vmpi::Topology::grouped(kRanks, v.nodes);
    std::vector<Tuple> got[4];
    vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
      queries::QueryTuning tuning;
      tuning.engine.exchange = v.exchange;
      if (v.skew_threshold > 0) {
        tuning.engine.skew.enabled = true;
        tuning.engine.skew.hot_threshold = v.skew_threshold;
      }
      {
        queries::SsspOptions opts;
        opts.sources = sources;
        opts.tuning = tuning;
        opts.collect_distances = true;
        auto r = run_sssp(comm, g, opts);
        if (comm.rank() == 0) got[0] = std::move(r.distances);
      }
      {
        queries::CcOptions opts;
        opts.tuning = tuning;
        opts.collect_labels = true;
        auto r = run_cc(comm, g, opts);
        if (comm.rank() == 0) got[1] = std::move(r.labels);
      }
      {
        queries::TcOptions opts;
        opts.tuning = tuning;
        opts.collect_pairs = true;
        auto r = run_tc(comm, g, opts);
        if (comm.rank() == 0) got[2] = std::move(r.pairs);
      }
      {
        queries::PagerankOptions opts;
        opts.rounds = 5;
        opts.tuning = tuning;
        opts.collect_ranks = true;
        auto r = run_pagerank(comm, g, opts);
        if (comm.rank() == 0) got[3] = std::move(r.ranks);
      }
    });
    for (int q = 0; q < 4; ++q) {
      ASSERT_FALSE(got[q].empty()) << v.name << " query " << q;
      if (!have_reference) {
        reference[q] = std::move(got[q]);
      } else {
        EXPECT_EQ(got[q], reference[q]) << v.name << " query " << q;
      }
    }
    have_reference = true;
  }
}

// Counter pin: the BSP engine's deterministic kernel and wire counters on
// fixed seeded inputs.  Any change to the local-join kernel, the probe
// replication or the frame codec that moves one of these numbers changes
// BSP behaviour, not just its speed; the kernel constants are the engine's
// counters before the join kernel was shared with the async and serving
// engines.  The byte pins are those of the sorted, delta-coded row codec
// (raw 8-byte words before it: 213648 for SSSP, 291448 for CC).
struct PinnedCounters {
  std::uint64_t probes, probe_seeks, matches, outer_tuples_shipped, remote_bytes;
  std::vector<std::uint64_t> tuples_generated;  // per stratum
};

void expect_pinned(const core::RunResult& run, const PinnedCounters& want) {
  EXPECT_EQ(run.kernel.probes, want.probes);
  EXPECT_EQ(run.kernel.probe_seeks, want.probe_seeks);
  EXPECT_EQ(run.kernel.matches, want.matches);
  EXPECT_EQ(run.kernel.outer_tuples_shipped, want.outer_tuples_shipped);
  EXPECT_EQ(run.comm_total.total_remote_bytes(), want.remote_bytes);
  std::vector<std::uint64_t> got;
  for (const auto& s : run.strata) got.push_back(s.tuples_generated);
  EXPECT_EQ(got, want.tuples_generated);
}

TEST(Determinism, BspKernelCountersPinned) {
  const auto rmat = graph::make_rmat({.scale = 9, .edge_factor = 6, .seed = 41});
  const auto grid = graph::make_grid(12, 12, 9, 42);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    queries::SsspOptions sopts;
    sopts.sources = rmat.pick_sources(3);
    const auto sssp = run_sssp(comm, rmat, sopts);
    queries::CcOptions copts;
    const auto cc = run_cc(comm, grid, copts);
    if (comm.rank() != 0) return;
    {
      SCOPED_TRACE("sssp");
      expect_pinned(sssp.run, {2626, 1279, 22561, 2626, 31973, {1097}});
    }
    {
      SCOPED_TRACE("cc");
      expect_pinned(cc.run, {2400, 1728, 7008, 1728, 45808, {503, 0}});
    }
  });
}

}  // namespace
}  // namespace paralagg
