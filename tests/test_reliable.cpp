// Self-healing transport: retry-budget escalation, healing-counter
// determinism, and serving batch rollback.
//
// The contract under test (DESIGN.md §14): the reliable channel heals
// injected drops and corruption by ack/retransmit within a bounded retry
// budget; when the budget is exhausted the failure escalates to the PR 5
// typed abort on every rank (never a hang), with the healing counters in
// the error text; the counters themselves replay exactly from the fault
// seed; and a serving batch that aborts mid-flight rolls back to the
// pre-batch fixpoint and the engine keeps serving.

#include "vmpi/reliable.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "queries/programs.hpp"
#include "queries/sssp.hpp"
#include "serving/serving_engine.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::Tuple;
using core::value_t;

constexpr double kWatchdog = 4.0;

// A tight budget keeps the exhaustion tests fast: 3 attempts at 10ms base
// backoff fail within ~150ms instead of the default policy's seconds.
vmpi::RetryPolicy tight_retry() {
  vmpi::RetryPolicy r;
  r.max_attempts = 3;
  r.base_backoff = 0.01;
  r.deadline = 2.0;
  return r;
}

/// One directed-edge fault leg over bare vmpi: rank 1 sends one frame to
/// rank 2, everyone meets at a barrier.  Under a total directed fault the
/// send can never be delivered intact; the sender must exhaust its budget
/// into a typed abort that poisons every rank.
struct DirectedLeg {
  std::vector<int> aborted;
  std::vector<std::string> what;
  std::vector<std::uint64_t> retransmits;
  std::vector<std::uint64_t> nacks;
};

DirectedLeg run_directed_leg(const vmpi::FaultPlan& plan, const vmpi::RetryPolicy& retry) {
  constexpr int kRanks = 3;
  DirectedLeg out;
  out.aborted.assign(kRanks, 0);
  out.what.resize(kRanks);
  out.retransmits.assign(kRanks, 0);
  out.nacks.assign(kRanks, 0);
  vmpi::RunOptions options;
  options.fault = plan;
  options.retry = retry;
  options.watchdog_seconds = kWatchdog;
  vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    try {
      if (comm.rank() == 1) {
        const std::byte payload[8] = {};
        comm.isend(2, 7, payload);
      }
      if (comm.rank() == 2) {
        (void)comm.recv(1, 7);
      }
      comm.barrier();
    } catch (const vmpi::FaultError& e) {
      out.aborted[me] = 1;
      out.what[me] = e.what();
    }
    out.retransmits[me] = comm.stats().retransmits;
    out.nacks[me] = comm.stats().nacks_sent;
  });
  return out;
}

TEST(Reliable, DirectedDropExhaustsRetryBudgetIntoTypedAbort) {
  // Every copy of edge 1->2 vanishes, including every retransmit: the
  // sender must burn exactly max_attempts retransmits (no NACKs — nothing
  // arrives to be NACKed) and then escalate to a typed abort everywhere.
  vmpi::FaultPlan plan;
  plan.seed = 61;
  plan.drop_prob = 1.0;
  plan.only_src = 1;
  plan.only_dst = 2;
  const auto retry = tight_retry();
  const auto leg = run_directed_leg(plan, retry);

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(leg.aborted[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
  EXPECT_EQ(leg.retransmits[1], retry.max_attempts);
  EXPECT_EQ(leg.retransmits[0] + leg.retransmits[2], 0u);
  EXPECT_EQ(leg.nacks[0] + leg.nacks[1] + leg.nacks[2], 0u);
  // S1: the sender's abort names the edge and embeds the heal counters.
  EXPECT_NE(leg.what[1].find("reliable delivery to rank 2"), std::string::npos)
      << leg.what[1];
  EXPECT_NE(leg.what[1].find("healing attempted"), std::string::npos) << leg.what[1];
  EXPECT_NE(leg.what[1].find("retransmits"), std::string::npos) << leg.what[1];
}

TEST(Reliable, DirectedCorruptExhaustsBudgetWithNacksAndRepliesExactly) {
  // Every copy of edge 1->2 is corrupted: each arrival fails the envelope
  // CRC and bounces a NACK, each NACK (or timer) triggers one retransmit,
  // and the budget caps the exchange at max_attempts retransmits and
  // max_attempts + 1 corrupt arrivals — all deterministic from the seed.
  vmpi::FaultPlan plan;
  plan.seed = 62;
  plan.corrupt_prob = 1.0;
  plan.only_src = 1;
  plan.only_dst = 2;
  const auto retry = tight_retry();

  const auto first = run_directed_leg(plan, retry);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(first.aborted[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
  EXPECT_EQ(first.retransmits[1], retry.max_attempts);
  // Receiver NACKed the initial copy plus every retransmitted copy.
  EXPECT_EQ(first.nacks[2], static_cast<std::uint64_t>(retry.max_attempts) + 1);

  // S3: replaying the identical schedule reproduces the healing counters
  // bit-for-bit — the fault decisions and the budget arithmetic are both
  // pure functions of the seed.
  const auto second = run_directed_leg(plan, retry);
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.nacks, second.nacks);
  EXPECT_EQ(first.aborted, second.aborted);
}

TEST(Reliable, FaultableFrameCarriesExactlyOneEnvelopeHeader) {
  // One frame format: under a fault plan an N-byte application payload is
  // enveloped once — N + 32 bytes in the peer's mailbox, in both retry
  // modes (the send_data image is what the faultable enqueue publishes) —
  // and the receiving application gets back exactly its N bytes.
  ASSERT_EQ(vmpi::ReliableChannel::kEnvelopeBytes, 32u);
  vmpi::RetryPolicy detect;
  detect.max_attempts = 0;
  for (const auto& retry : {vmpi::RetryPolicy{}, detect}) {
    vmpi::CommStats st;
    vmpi::ReliableChannel tx(0, 2, retry, &st);
    for (const std::size_t n : {std::size_t{0}, std::size_t{8}, std::size_t{1000}}) {
      const std::vector<std::byte> payload(n, std::byte{0x2A});
      EXPECT_EQ(tx.send_data(1, 7, payload, 0.0).size(), n + 32) << "N = " << n;
    }
  }

  vmpi::RunOptions options;
  options.fault.seed = 64;
  options.fault.dup_prob = 0.5;  // engage the channel; dups are filtered
  options.watchdog_seconds = kWatchdog;
  constexpr std::size_t kN = 24;
  std::vector<std::size_t> got(2, 0);
  vmpi::run(2, options, [&](vmpi::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> payload(kN, std::byte{0x11});
      for (int i = 0; i < 4; ++i) comm.isend(1, 9, payload);
    } else {
      for (int i = 0; i < 4; ++i) got[1] += comm.recv(0, 9).size();
    }
    comm.barrier();
  });
  EXPECT_EQ(got[1], 4 * kN);
}

// ---------------------------------------------------------------------------
// Serving under the reliable transport
// ---------------------------------------------------------------------------

/// From-scratch SSSP fixpoint — the oracle incremental serving must match.
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

/// This rank's share of one edge-relation batch.
serving::UpdateBatch edge_batch(const vmpi::Comm& comm, std::span<const Tuple> inserts,
                                std::span<const Tuple> deletes) {
  serving::RelationDelta d;
  d.relation = "edge";
  const auto n = static_cast<std::size_t>(comm.size());
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < inserts.size(); i += n) {
    d.inserts.push_back(inserts[i]);
  }
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < deletes.size(); i += n) {
    d.deletes.push_back(deletes[i]);
  }
  serving::UpdateBatch b;
  b.push_back(std::move(d));
  return b;
}

TEST(Reliable, ServingMutationFramesHealUnderDrop) {
  // Serving's own mutation traffic (exchange_flat) rides the faultable
  // mailbox exchange, so injected drops and corruption must be healed by
  // the reliable channel: the batch completes, the fixpoint matches the
  // from-scratch oracle, and real retransmits happened on the wire.  The
  // corrupt leg is the mailbox alltoallv's corrupt-heal coverage: a
  // flipped byte fails the envelope CRC and is NACKed back for resend.
  const auto g = graph::make_chain(32, /*max_weight=*/3);
  const Tuple removed{g.edges[5].src, g.edges[5].dst, g.edges[5].weight};
  const std::vector<Tuple> inserts{Tuple{2, 20, 1}};
  const std::vector<Tuple> deletes{removed};

  graph::Graph mutated = g;
  std::erase(mutated.edges, graph::Edge{removed[0], removed[1], removed[2]});
  mutated.edges.push_back(graph::Edge{2, 20, 1});
  const auto oracle = fresh_sssp(mutated);

  vmpi::FaultPlan drop;
  drop.seed = 63;
  drop.drop_prob = 0.08;
  vmpi::FaultPlan corrupt;
  corrupt.seed = 64;
  corrupt.corrupt_prob = 0.08;
  for (const auto& [name, plan] : {std::pair{"drop", drop}, std::pair{"corrupt", corrupt}}) {
    SCOPED_TRACE(name);
    vmpi::RunOptions options;
    options.fault = plan;
    options.watchdog_seconds = kWatchdog;
    const int ranks = 4;
    std::vector<int> aborted(ranks, 1);
    std::vector<std::uint64_t> retransmits(ranks, 0);
    std::vector<std::vector<Tuple>> rows(ranks);
    vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
      auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
      serving::ServingEngine srv(comm, *prog.program, {});
      queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
      srv.start();
      const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
      const auto me = static_cast<std::size_t>(comm.rank());
      aborted[me] = res.aborted_fault ? 1 : 0;
      rows[me] = srv.lookup("spath", {});
      retransmits[me] = comm.stats().retransmits;
    });

    std::uint64_t total_retransmits = 0;
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(aborted[static_cast<std::size_t>(r)], 0) << "rank " << r;
      EXPECT_EQ(rows[static_cast<std::size_t>(r)], oracle) << "rank " << r;
      total_retransmits += retransmits[static_cast<std::size_t>(r)];
    }
    EXPECT_GT(total_retransmits, 0u) << "faults healed without a single retransmit?";
  }
}

TEST(Reliable, KilledRankDuringBatchRollsBackAndKeepsServing) {
  // A rank killed mid-batch aborts the batch on every rank; with rollback
  // enabled the batch is undone (typed UpdateResult, rolled_back set), the
  // pre-batch fixpoint still answers lookups, and — the kill being
  // one-shot — re-applying the same batch succeeds and converges to the
  // oracle.  Graceful degradation instead of a dead service.
  const auto g = graph::make_chain(48, /*max_weight=*/1);
  const Tuple reweighted{g.edges[10].src, g.edges[10].dst, g.edges[10].weight};
  const std::vector<Tuple> inserts{Tuple{reweighted[0], reweighted[1], reweighted[2] + 1}};
  const std::vector<Tuple> deletes{reweighted};

  graph::Graph mutated = g;
  std::erase(mutated.edges, graph::Edge{reweighted[0], reweighted[1], reweighted[2]});
  mutated.edges.push_back(graph::Edge{inserts[0][0], inserts[0][1], inserts[0][2]});
  const auto oracle = fresh_sssp(mutated);
  const auto pre_batch = fresh_sssp(g);

  // Measuring leg: locate the batch tail on the epoch axis.
  std::size_t start_iters = 0, tail = 0;
  vmpi::run(4, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    const auto rr = srv.start();
    const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
    if (comm.rank() == 0) {
      start_iters = rr.total_iterations;
      tail = res.tail_iterations;
    }
  });
  ASSERT_GE(tail, 8u) << "batch tail too short to land a kill in reliably";

  const int ranks = 4;
  vmpi::RunOptions options;
  options.fault.kill_rank = 1;
  options.fault.kill_epoch = static_cast<std::uint64_t>(start_iters + tail / 2);
  options.watchdog_seconds = kWatchdog;
  std::vector<int> first_aborted(ranks, 0);
  std::vector<int> first_rolled_back(ranks, 0);
  std::vector<int> second_aborted(ranks, 1);
  std::vector<std::vector<Tuple>> between(ranks);
  std::vector<std::vector<Tuple>> after(ranks);
  vmpi::run(ranks, options, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    const auto me = static_cast<std::size_t>(comm.rank());

    const auto res = srv.apply_updates(edge_batch(comm, inserts, deletes));
    first_aborted[me] = res.aborted_fault ? 1 : 0;
    first_rolled_back[me] = res.rolled_back ? 1 : 0;
    if (!res.rolled_back) return;  // engine stopped serving; test will fail below

    // The rolled-back service still answers, at the pre-batch fixpoint.
    between[me] = srv.lookup("spath", {});

    // The kill was one-shot; the retry must go through cleanly.
    const auto res2 = srv.apply_updates(edge_batch(comm, inserts, deletes));
    second_aborted[me] = res2.aborted_fault ? 1 : 0;
    after[me] = srv.lookup("spath", {});
  });

  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(first_aborted[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(first_rolled_back[static_cast<std::size_t>(r)], 1);
    EXPECT_EQ(between[static_cast<std::size_t>(r)], pre_batch);
    EXPECT_EQ(second_aborted[static_cast<std::size_t>(r)], 0);
    EXPECT_EQ(after[static_cast<std::size_t>(r)], oracle);
  }
}

}  // namespace
}  // namespace paralagg
