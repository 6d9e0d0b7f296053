// BSP vs asynchronous engine on the same recursive query: where does a
// rank's time go when the input is skewed?
//
// Under BSP, a power-law hub makes one rank's local join long and every
// other rank pays for it at the next barrier (CommStats::wait_seconds).
// The async engine has no per-iteration barrier: idle ranks park in a
// blocking recv (drain), wake per message, and quiesce via the Safra ring.
// Both engines must reach the bit-identical fixpoint: every run gathers
// its sorted spath rows and the bench fails unless they equal the first
// BSP run's exactly.  The comparison is then about where waiting happens
// (barrier-wait vs drain) and what it costs on the wire.
//
// Usage: async_vs_bsp [ranks=8] [scale=12] [reps=5].  Each (graph, engine)
// pair runs `reps` times, alternating engines, and emits one JSON line
// with the median and quartiles of wall time (ranks are threads on a
// shared box, so one wall reading is noise) plus the medians of the other
// readings.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"

namespace paralagg::bench {
namespace {

struct Row {
  const char* engine = "bsp";
  std::string graph;
  int ranks = 0;
  double wall_s = 0;
  double barrier_wait_s = 0;  // max per-rank seconds parked at collectives
  double drain_s = 0;         // max per-rank seconds parked in blocking recv
  double remote_mib = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t iterations = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_seeks = 0;
  std::vector<core::Tuple> spath;  // sorted fixpoint rows
};

Row run_sssp_once(const graph::Graph& g, const std::vector<core::value_t>& sources,
                  int ranks, bool use_async) {
  Row row;
  row.engine = use_async ? "async" : "bsp";
  row.graph = g.name;
  row.ranks = ranks;

  std::vector<double> blocked(static_cast<std::size_t>(ranks), 0.0);
  std::vector<vmpi::CommStats> per_rank;
  vmpi::run_collect(
      ranks,
      [&](vmpi::Comm& comm) {
        core::Program program(comm);
        auto* edge = program.relation({.name = "edge", .arity = 3, .jcc = 1});
        auto* spath = program.relation({.name = "spath",
                                        .arity = 3,
                                        .jcc = 1,
                                        .dep_arity = 1,
                                        .aggregator = core::make_min_aggregator()});
        auto& stratum = program.stratum();
        stratum.loop_rules.push_back(core::JoinRule{
            .a = spath,
            .a_version = core::Version::kDelta,
            .b = edge,
            .b_version = core::Version::kFull,
            .out = {.target = spath,
                    .cols = {core::Expr::col_b(1), core::Expr::col_a(1),
                             core::Expr::add(core::Expr::col_a(2), core::Expr::col_b(2))}},
        });
        edge->load_facts(queries::edge_slice(comm, g, /*weighted=*/true));
        std::vector<core::Tuple> seeds;
        if (comm.rank() == 0) {
          for (core::value_t s : sources) seeds.push_back(core::Tuple{s, s, 0});
        }
        spath->load_facts(seeds);

        core::RunResult run;
        double my_blocked = 0;
        if (use_async) {
          async::AsyncEngine engine(comm);
          run = engine.run(program);
          my_blocked = engine.loop_stats().blocked_seconds;
        } else {
          core::Engine engine(comm);
          run = engine.run(program);
        }
        const auto blocked_all = comm.allgather<double>(my_blocked);
        auto rows = spath->gather_to_root();
        if (comm.rank() == 0) {
          row.wall_s = run.wall_seconds;
          row.iterations = run.total_iterations;
          row.remote_mib = mib(run.comm_total.total_remote_bytes());
          row.p2p_messages = run.comm_total.messages_sent;
          row.probes = run.kernel.probes;
          row.probe_seeks = run.kernel.probe_seeks;
          row.spath = std::move(rows);
          blocked = blocked_all;
        }
      },
      per_rank);

  // wait_seconds counts every blocking primitive; subtracting the async
  // loop's own drain time leaves the collective (barrier) share.
  for (int r = 0; r < ranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double wait = per_rank[i].wait_seconds;
    row.barrier_wait_s = std::max(row.barrier_wait_s, std::max(0.0, wait - blocked[i]));
    row.drain_s = std::max(row.drain_s, blocked[i]);
  }
  return row;
}

/// Linear-interpolated quantile q in [0, 1] of `v`.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename F>
double median_of(const std::vector<Row>& runs, F&& field) {
  std::vector<double> v;
  for (const Row& r : runs) v.push_back(static_cast<double>(field(r)));
  return quantile(std::move(v), 0.5);
}

void emit(const std::vector<Row>& runs) {
  const Row& r = runs.front();
  std::vector<double> wall;
  for (const Row& x : runs) wall.push_back(x.wall_s);
  std::printf(
      "{\"engine\":\"%s\",\"query\":\"sssp\",\"graph\":\"%s\",\"ranks\":%d,"
      "\"reps\":%zu,\"wall_s_median\":%.6f,\"wall_s_q1\":%.6f,\"wall_s_q3\":%.6f,"
      "\"barrier_wait_s\":%.6f,\"drain_s\":%.6f,\"remote_mib\":%.3f,"
      "\"p2p_messages\":%.0f,\"iterations\":%.0f,\"probes\":%.0f,\"probe_seeks\":%.0f,"
      "\"paths\":%zu}\n",
      r.engine, r.graph.c_str(), r.ranks, runs.size(), quantile(wall, 0.5),
      quantile(wall, 0.25), quantile(wall, 0.75),
      median_of(runs, [](const Row& x) { return x.barrier_wait_s; }),
      median_of(runs, [](const Row& x) { return x.drain_s; }),
      median_of(runs, [](const Row& x) { return x.remote_mib; }),
      median_of(runs, [](const Row& x) { return x.p2p_messages; }),
      median_of(runs, [](const Row& x) { return x.iterations; }),
      median_of(runs, [](const Row& x) { return x.probes; }),
      median_of(runs, [](const Row& x) { return x.probe_seeks; }), r.spath.size());
}

}  // namespace
}  // namespace paralagg::bench

int main(int argc, char** argv) {
  using namespace paralagg;
  using namespace paralagg::bench;

  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int scale = argc > 2 ? std::atoi(argv[2]) : 12;
  const int reps = argc > 3 ? std::max(1, std::atoi(argv[3])) : 5;

  banner("async vs BSP: barrier-wait under skew",
         "SSSP, BSP engine vs nonblocking delta propagation, same fixpoint",
         "one JSON line per (graph, engine): median and quartiles over reps");

  // Skewed (power-law hubs) and uniform (grid) inputs at the same scale.
  const auto skewed = graph::make_twitter_like(scale, 10);
  const auto side = static_cast<std::uint64_t>(1) << (scale / 2);
  const auto uniform = graph::make_grid(side, side, 10, 7);

  for (const auto* g : {&skewed, &uniform}) {
    const auto sources = g->pick_hubs(3);
    std::vector<Row> bsp, async_runs;
    for (int rep = 0; rep < reps; ++rep) {  // alternate, so drift hits both
      bsp.push_back(run_sssp_once(*g, sources, ranks, /*use_async=*/false));
      async_runs.push_back(run_sssp_once(*g, sources, ranks, /*use_async=*/true));
    }
    const auto& reference = bsp.front().spath;
    for (const auto* runs : {&bsp, &async_runs}) {
      for (const Row& r : *runs) {
        if (r.spath != reference) {
          std::printf("MISMATCH on %s: %s fixpoint (%zu rows) differs from bsp (%zu rows)\n",
                      g->name.c_str(), r.engine, r.spath.size(), reference.size());
          return 1;
        }
      }
    }
    emit(bsp);
    emit(async_runs);
  }

  std::printf("\nbarrier-wait is where BSP pays for skew; the async loop has no\n");
  std::printf("per-iteration barrier, so its collective share is init/exit only.\n");
  return 0;
}
