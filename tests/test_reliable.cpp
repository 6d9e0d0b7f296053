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

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/program.hpp"
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

/// One rank's copy of everything a serving batch can mutate: every
/// relation's full rows, delta rows and support counts, the reverse
/// indexes included, in a fixed order.
struct ServingState {
  std::vector<std::vector<Tuple>> rows;  // per relation: full, then delta
  std::vector<std::vector<std::pair<Tuple, std::uint64_t>>> support;
  bool operator==(const ServingState&) const = default;
};

ServingState capture(const core::Program& program, const serving::ServingEngine& srv) {
  std::vector<const core::Relation*> rels;
  for (const auto& r : program.relations()) rels.push_back(r.get());
  for (const auto* r : srv.reverse_indexes()) rels.push_back(r);
  ServingState s;
  for (const auto* r : rels) {
    for (const auto v : {core::Version::kFull, core::Version::kDelta}) {
      auto& out = s.rows.emplace_back();
      r->tree(v).for_each([&](std::span<const value_t> row) { out.emplace_back(row); });
    }
    auto& sup = s.support.emplace_back(r->support_counts().begin(), r->support_counts().end());
    std::sort(sup.begin(), sup.end());
  }
  return s;
}

/// A plain recursive program: reach(y, s) :- reach(x, s), edge(x, y).
/// Its target keeps exact support counts, which the SSSP program's
/// min-aggregated target does not.
struct ReachProgram {
  std::unique_ptr<core::Program> program;
  core::Relation* edge = nullptr;
  core::Relation* reach = nullptr;
};

ReachProgram build_reach_program(vmpi::Comm& comm) {
  ReachProgram p;
  p.program = std::make_unique<core::Program>(comm);
  p.edge = p.program->relation({.name = "edge", .arity = 2, .jcc = 1});
  p.reach = p.program->relation({.name = "reach", .arity = 2, .jcc = 1});
  p.program->stratum().loop_rules.push_back(core::JoinRule{
      .a = p.reach,
      .a_version = core::Version::kDelta,
      .b = p.edge,
      .b_version = core::Version::kFull,
      .out = {.target = p.reach, .cols = {core::Expr::col_b(1), core::Expr::col_a(1)}},
  });
  return p;
}

/// What one rollback leg saw on one rank.
struct RankOutcome {
  std::size_t start_iterations = 0;
  serving::UpdateResult first;      // the batch under the fault plan
  bool retry_aborted = true;        // the same batch applied again
  ServingState before, between, after;  // pre-batch, after the abort, after the retry
  std::vector<Tuple> before_rows, between_rows, after_rows;  // lookups of the maintained relation
};

/// Serve `g` from source 0 (SSSP, or plain reachability with `reach`) on
/// four ranks under `options`, apply one batch, and, if it was rolled
/// back, apply it again.  Without a fault, `after` is the batch's clean
/// result.
std::vector<RankOutcome> run_rollback_leg(const graph::Graph& g, bool reach,
                                          const vmpi::RunOptions& options,
                                          std::span<const Tuple> inserts,
                                          std::span<const Tuple> deletes) {
  constexpr int kRanks = 4;
  std::vector<RankOutcome> out(kRanks);
  vmpi::run(kRanks, options, [&](vmpi::Comm& comm) {
    auto& o = out[static_cast<std::size_t>(comm.rank())];
    auto program = reach ? build_reach_program(comm).program
                         : queries::build_sssp_program(comm, 1, /*balance_edges=*/false).program;
    // Both builders declare the edge relation first, the maintained one second.
    core::Relation* edge = program->relations()[0].get();
    core::Relation* target = program->relations()[1].get();
    serving::ServingEngine srv(comm, *program, {});  // before loading: support counts
    edge->load_facts(queries::edge_slice(comm, g, /*weighted=*/!reach));
    std::vector<Tuple> seed;
    if (comm.rank() == 0) seed.push_back(reach ? Tuple{0, 0} : Tuple{0, 0, 0});
    target->load_facts(seed);
    o.start_iterations = srv.start().total_iterations;
    o.before = capture(*program, srv);
    o.before_rows = srv.lookup(target->name(), {});

    o.first = srv.apply_updates(edge_batch(comm, inserts, deletes));
    if (o.first.rolled_back) {
      o.between = capture(*program, srv);
      o.between_rows = srv.lookup(target->name(), {});
      o.retry_aborted = srv.apply_updates(edge_batch(comm, inserts, deletes)).aborted_fault;
    } else if (o.first.aborted_fault) {
      return;  // the engine stopped serving; the test fails below
    }
    o.after = capture(*program, srv);
    o.after_rows = srv.lookup(target->name(), {});
  });
  return out;
}

/// A detect-only corruption plan whose only corrupted frame among the
/// first `k` + 400 on edge 1->2 is frame `k` (0-based).  Serving sends one
/// frame per peer per exchange_flat call, and only those frames are
/// faultable: frame 0 on the edge is start()'s reverse-index build, and
/// frame `k` is the k-th mutation exchange of the first batch (2: its
/// base inserts; 5: the first hop of its retraction wavefront).  Not 1: a
/// receiver still in the collective before the batch may already check
/// the batch's first frame and abort outside apply_updates.  The window
/// covers the batch and its retry.
vmpi::RunOptions corrupt_frame(std::uint64_t k) {
  vmpi::RunOptions options;
  options.retry.max_attempts = 0;  // detect-only: a corrupt frame aborts the batch
  options.watchdog_seconds = kWatchdog;
  auto& plan = options.fault;
  plan.corrupt_prob = 0.002;
  plan.only_src = 1;
  plan.only_dst = 2;
  for (plan.seed = 1;; ++plan.seed) {
    bool exact = true;
    for (std::uint64_t seq = 0; seq <= k + 400 && exact; ++seq) {
      const bool hit = vmpi::fault_decide(plan, 1, 2, seq).action == vmpi::FaultAction::kCorrupt;
      exact = hit == (seq == k);
    }
    if (exact) return options;
  }
}

TEST(Reliable, KilledRankDuringBatchRollsBackAndKeepsServing) {
  // An aborted batch is undone exactly: on every rank, every relation's
  // full and delta rows, the reverse indexes and the support counts
  // return to their pre-batch state, lookups answer from it, and — the
  // faults being one-shot — applying the same batch again reaches the
  // state a clean run of that batch reaches.  Each batch deletes a chain
  // edge, so it retracts everything downstream before re-deriving it.
  // Legs: a rank killed in the tail (SSSP, and plain reachability with
  // exact support counts), and a corrupt frame caught by a detect-only
  // channel during the base apply and during the retraction wavefront.
  const auto g = graph::make_chain(48, /*max_weight=*/1);
  const std::vector<Tuple> sssp_deletes{Tuple{10, 11, 1}};
  const std::vector<Tuple> sssp_inserts{Tuple{10, 11, 2}};  // reweighted
  const std::vector<Tuple> reach_deletes{Tuple{10, 11}};
  const std::vector<Tuple> reach_inserts{Tuple{10, 12}};  // skips node 11

  graph::Graph mutated = g;
  std::erase(mutated.edges, graph::Edge{10, 11, 1});
  mutated.edges.push_back(graph::Edge{10, 11, 2});
  const auto oracle = fresh_sssp(mutated);

  struct Leg {
    const char* name;
    bool reach;
    vmpi::RunOptions options;
  };
  std::vector<Leg> legs;
  for (const bool reach : {false, true}) {
    const auto& ins = reach ? reach_inserts : sssp_inserts;
    const auto& del = reach ? reach_deletes : sssp_deletes;
    const auto clean = run_rollback_leg(g, reach, {}, ins, del);
    const auto& res = clean[0].first;
    ASSERT_FALSE(res.aborted_fault);
    ASSERT_GT(res.retracted, 10u) << "the delete must retract the chain's tail";
    ASSERT_GE(res.tail_iterations, 8u) << "batch tail too short to land a kill in reliably";
    if (!reach) {
      for (const auto& o : clean) EXPECT_EQ(o.after_rows, oracle);
    }
    vmpi::RunOptions kill;
    kill.fault.kill_rank = 1;
    kill.fault.kill_epoch = clean[0].start_iterations + res.tail_iterations / 2;
    kill.watchdog_seconds = kWatchdog;
    legs.push_back({reach ? "reach: rank killed in the tail" : "sssp: rank killed in the tail",
                    reach, kill});
  }
  legs.push_back({"sssp: corrupt frame in the base apply", false, corrupt_frame(2)});
  legs.push_back({"sssp: corrupt frame in the wavefront", false, corrupt_frame(5)});

  for (const auto& leg : legs) {
    SCOPED_TRACE(leg.name);
    const auto& ins = leg.reach ? reach_inserts : sssp_inserts;
    const auto& del = leg.reach ? reach_deletes : sssp_deletes;
    const auto clean = run_rollback_leg(g, leg.reach, {}, ins, del);
    const auto got = run_rollback_leg(g, leg.reach, leg.options, ins, del);
    for (std::size_t r = 0; r < got.size(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_TRUE(got[r].first.aborted_fault);
      ASSERT_TRUE(got[r].first.rolled_back) << got[r].first.fault_what;
      EXPECT_TRUE(got[r].between == got[r].before) << "rollback left state behind";
      EXPECT_EQ(got[r].between_rows, got[r].before_rows)
          << "lookups after rollback differ from the pre-batch fixpoint";
      EXPECT_FALSE(got[r].retry_aborted);
      EXPECT_TRUE(got[r].after == clean[r].after) << "retry differs from a clean batch";
      if (!leg.reach) {
        EXPECT_EQ(got[r].after_rows, oracle);
      }
    }
  }
}

}  // namespace
}  // namespace paralagg
