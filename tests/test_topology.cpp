// Topology model and log-step collective schedules.
//
// The contracts under test: (1) the Topology partition arithmetic and the
// schedule parser; (2) allreduce/allgather results AND payload-byte totals
// are schedule-invariant (only steps and the intra/cross locality split
// may move).

#include "vmpi/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using vmpi::CollectiveSchedule;
using vmpi::Comm;
using vmpi::CommStats;
using vmpi::Op;
using vmpi::Topology;

// ---------------------------------------------------------------------------
// Topology partition arithmetic
// ---------------------------------------------------------------------------

TEST(Topology, FlatDefaultMakesEveryRankItsOwnNode) {
  const Topology t;
  EXPECT_EQ(t.node_size, 1);
  for (int r = 0; r < 5; ++r) EXPECT_EQ(t.node_of(r), r);
  EXPECT_FALSE(t.same_node(0, 1));
  EXPECT_EQ(t.node_count(5), 5);
}

TEST(Topology, GroupedPartitionsContiguously) {
  const Topology t = Topology::grouped(32, 4);
  EXPECT_EQ(t.node_size, 8);
  EXPECT_EQ(t.node_count(32), 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_TRUE(t.same_node(16, 23));
  EXPECT_FALSE(t.same_node(15, 16));
}

TEST(Topology, GroupedHandlesRaggedAndDegenerateShapes) {
  // 10 ranks on 3 nodes: node_size ceil(10/3) = 4, last node short.
  const Topology ragged = Topology::grouped(10, 3);
  EXPECT_EQ(ragged.node_size, 4);
  EXPECT_EQ(ragged.node_count(10), 3);
  EXPECT_EQ(ragged.node_of(7), 1);
  EXPECT_EQ(ragged.node_of(9), 2);

  // Degenerate requests collapse to flat.
  EXPECT_EQ(Topology::grouped(8, 0).node_size, 1);
  EXPECT_EQ(Topology::grouped(8, 8).node_size, 1);
  EXPECT_EQ(Topology::grouped(8, 100).node_size, 1);
}

TEST(Topology, ParseScheduleNamesRoundTrip) {
  EXPECT_EQ(vmpi::parse_schedule("linear"), CollectiveSchedule::kLinear);
  EXPECT_EQ(vmpi::parse_schedule("rd"), CollectiveSchedule::kRecursiveDoubling);
  EXPECT_EQ(vmpi::parse_schedule("recursive-doubling"),
            CollectiveSchedule::kRecursiveDoubling);
  EXPECT_THROW((void)vmpi::parse_schedule("hypercube"), std::invalid_argument);
  EXPECT_THROW((void)vmpi::parse_schedule("swing"), std::invalid_argument);
  for (const auto s : {CollectiveSchedule::kLinear, CollectiveSchedule::kRecursiveDoubling}) {
    EXPECT_EQ(vmpi::parse_schedule(vmpi::schedule_name(s)), s);
  }
}

// ---------------------------------------------------------------------------
// Schedule equivalence: same results, same payload bytes, fewer steps
// ---------------------------------------------------------------------------

vmpi::RunOptions with_schedule(CollectiveSchedule s, Topology topo = Topology{}) {
  vmpi::RunOptions o;
  o.schedule = s;
  o.topology = topo;
  return o;
}

TEST(Schedules, CollectivesIdenticalAcrossSchedulesAndSizes) {
  // Power-of-two sizes exercise recursive doubling; the rest
  // exercise the capped dissemination fallback.  The reduction order is
  // contractually rank order, so every schedule must agree bit for bit.
  for (const int n : {2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    for (const auto sched :
         {CollectiveSchedule::kLinear, CollectiveSchedule::kRecursiveDoubling}) {
      SCOPED_TRACE(std::string(vmpi::schedule_name(sched)) + " n=" + std::to_string(n));
      vmpi::run(n, with_schedule(sched), [&](Comm& comm) {
        const auto r = static_cast<std::uint64_t>(comm.rank());
        const auto sum = comm.allreduce<std::uint64_t>(r + 1, vmpi::ReduceOp::kSum);
        EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) + 1) / 2);
        const auto mn = comm.allreduce<std::uint64_t>(r + 10, vmpi::ReduceOp::kMin);
        EXPECT_EQ(mn, 10u);
        const auto gathered = comm.allgather<std::uint64_t>(r * r);
        ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(gathered[static_cast<std::size_t>(i)],
                    static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(i));
        }
      });
    }
  }
}

TEST(Schedules, PayloadByteTotalsAreScheduleInvariant) {
  // Every schedule ships exactly n-1 blocks per rank (recursive doubling
  // by the power-of-two doubling argument, dissemination by the
  // send-count cap), so the accounted remote bytes must not move at all.
  for (const int n : {3, 8}) {
    for (const auto sched :
         {CollectiveSchedule::kLinear, CollectiveSchedule::kRecursiveDoubling}) {
      SCOPED_TRACE(std::string(vmpi::schedule_name(sched)) + " n=" + std::to_string(n));
      std::vector<CommStats> per_rank;
      vmpi::run_collect(
          n, with_schedule(sched),
          [&](Comm& comm) {
            (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
            (void)comm.allgather<std::uint64_t>(2);
          },
          per_rank);
      for (const auto& st : per_rank) {
        EXPECT_EQ(st.remote_bytes(Op::kAllreduce),
                  (static_cast<std::uint64_t>(n) - 1) * sizeof(std::uint64_t));
        EXPECT_EQ(st.remote_bytes(Op::kAllgather),
                  (static_cast<std::uint64_t>(n) - 1) * sizeof(std::uint64_t));
      }
    }
  }
}

TEST(Schedules, LogStepSchedulesRecordLogarithmicSteps) {
  struct Expect {
    CollectiveSchedule sched;
    std::uint64_t steps;  // per collective call at n = 8
  };
  const Expect expectations[] = {
      {CollectiveSchedule::kLinear, 7},
      {CollectiveSchedule::kRecursiveDoubling, 3},
  };
  for (const auto& e : expectations) {
    SCOPED_TRACE(vmpi::schedule_name(e.sched));
    std::vector<CommStats> per_rank;
    vmpi::run_collect(
        8, with_schedule(e.sched),
        [&](Comm& comm) {
          (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
          (void)comm.allgather<std::uint64_t>(2);
        },
        per_rank);
    for (const auto& st : per_rank) {
      EXPECT_EQ(st.steps_of(Op::kAllreduce), e.steps);
      EXPECT_EQ(st.steps_of(Op::kAllgather), e.steps);
    }
  }
  // Non-power-of-two under a log-step schedule: dissemination fallback,
  // still ceil(log2 n) steps (n = 6 -> 3 rounds).
  std::vector<CommStats> per_rank;
  vmpi::run_collect(
      6, with_schedule(CollectiveSchedule::kRecursiveDoubling),
      [&](Comm& comm) { (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum); },
      per_rank);
  for (const auto& st : per_rank) EXPECT_EQ(st.steps_of(Op::kAllreduce), 3u);
}

TEST(Schedules, SplitChildWorldsInheritTheSchedule) {
  std::vector<CommStats> per_rank;
  vmpi::run_collect(
      4, with_schedule(CollectiveSchedule::kLinear),
      [&](Comm& comm) {
        auto child = comm.split(comm.rank() % 2, comm.rank());
        (void)child.comm().allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
        EXPECT_EQ(child.comm().schedule(), CollectiveSchedule::kLinear);
      },
      per_rank);
}

// ---------------------------------------------------------------------------
// Per-kind intra- vs cross-node byte attribution (grouped topology)
// ---------------------------------------------------------------------------

TEST(Stats, CollectiveKindsSplitIntraVsCrossNodeBytes) {
  // 4 ranks on 2 nodes of 2.  Under the linear slot schedule every rank
  // sends its 8-byte block to all 3 peers: one shares the node (8 bytes
  // intra), two do not (16 bytes cross).  An alltoallv with 16-byte
  // buffers splits the same way: 16 intra, 32 cross.
  std::vector<CommStats> per_rank;
  vmpi::run_collect(
      4, with_schedule(CollectiveSchedule::kLinear, Topology::grouped(4, 2)),
      [&](Comm& comm) {
        (void)comm.allreduce<std::uint64_t>(1, vmpi::ReduceOp::kSum);
        (void)comm.allgather<std::uint64_t>(2);
        std::vector<std::vector<std::uint64_t>> send(4);
        for (auto& s : send) s = {1, 2};
        (void)comm.alltoallv_t(send);
      },
      per_rank);
  for (const auto& st : per_rank) {
    for (const Op op : {Op::kAllreduce, Op::kAllgather}) {
      EXPECT_EQ(st.remote_bytes(op), 24u);
      EXPECT_EQ(st.cross_node_bytes(op), 16u);
      EXPECT_EQ(st.intra_node_bytes(op), 8u);
    }
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 48u);
    EXPECT_EQ(st.cross_node_bytes(Op::kAlltoallv), 32u);
    EXPECT_EQ(st.intra_node_bytes(Op::kAlltoallv), 16u);
    EXPECT_EQ(st.total_cross_node_bytes(),
              st.cross_node_bytes(Op::kAllreduce) + st.cross_node_bytes(Op::kAllgather) +
                  st.cross_node_bytes(Op::kAlltoallv));
  }
}

TEST(Stats, FlatTopologyCountsAllRemoteBytesAsCrossNode) {
  // Pre-topology compatibility: with node_size 1 the locality split must
  // be degenerate — every remote byte is a cross-node byte.
  std::vector<CommStats> per_rank;
  vmpi::run_collect(
      3, [&](Comm& comm) { (void)comm.allgather<std::uint64_t>(1); }, per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.cross_node_bytes(Op::kAllgather), st.remote_bytes(Op::kAllgather));
    EXPECT_EQ(st.intra_node_bytes(Op::kAllgather), 0u);
  }
}

}  // namespace
}  // namespace paralagg
