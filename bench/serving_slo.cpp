// Serving SLO: what the resident incremental engine buys over re-running
// the batch engine on every change.
//
// Streams small update batches (two edge inserts + one delete each) into a
// warm RMAT SSSP fixpoint and measures, per batch, the incremental apply
// latency and derived-tuple work against a from-scratch evaluation of the
// same mutated graph; then measures sustained point-lookup throughput on
// the warm service.  Reports:
//
//   p99 latency — 99th-percentile apply_updates wall vs mean fresh wall
//   tuples      — derived-tuple work, incremental vs recompute
//   lookups/s   — batched point lookups served between batches
//
// Verdict (always enforced; --verdict trims the per-batch table for CI):
// the final incremental fixpoint must be bit-identical to the fresh run on
// the final graph, and the summed incremental tuple work must be STRICTLY
// cheaper than recompute — otherwise the subsystem has no reason to exist
// and the binary exits nonzero.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.hpp"

namespace paralagg::bench {
namespace {

using core::Tuple;
using core::value_t;
using Clock = std::chrono::steady_clock;

template <typename T>
void do_not_optimize(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Mutation {
  bool insert = true;
  Tuple row;
};

serving::UpdateBatch shard_batch(const vmpi::Comm& comm, std::span<const Mutation> muts) {
  serving::RelationDelta d;
  d.relation = "edge";
  const auto n = static_cast<std::size_t>(comm.size());
  for (std::size_t i = static_cast<std::size_t>(comm.rank()); i < muts.size(); i += n) {
    (muts[i].insert ? d.inserts : d.deletes).push_back(muts[i].row);
  }
  serving::UpdateBatch b;
  b.push_back(std::move(d));
  return b;
}

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

double p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = (99 * v.size() + 99) / 100;  // ceil(0.99 n)
  return v[std::min(idx, v.size()) - 1];
}

}  // namespace
}  // namespace paralagg::bench

int main(int argc, char** argv) {
  using namespace paralagg;
  using namespace paralagg::bench;

  bool verdict_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verdict") == 0) verdict_only = true;
  }

  const int ranks = 4;
  const int nbatches = 32;
  const auto g = graph::make_rmat({.scale = 8, .edge_factor = 4, .seed = 21});
  const auto nodes = g.num_nodes;

  // Deterministic small batches: two inserts and one delete of an original
  // edge each — the streaming regime the serving SLO is about.
  std::vector<std::vector<Mutation>> batches(nbatches);
  for (int i = 0; i < nbatches; ++i) {
    const auto k = static_cast<value_t>(i);
    auto& b = batches[static_cast<std::size_t>(i)];
    b.push_back({true, Tuple{(3 * k + 1) % nodes, (5 * k + 7) % nodes, 1 + (k % 9)}});
    b.push_back({true, Tuple{(7 * k + 2) % nodes, (11 * k + 3) % nodes, 1 + (k % 5)}});
    const auto& e = g.edges[static_cast<std::size_t>(13 * i) % g.edges.size()];
    b.push_back({false, Tuple{e.src, e.dst, e.weight}});
  }

  banner("serving SLO — incremental maintenance vs full re-evaluation",
         "resident service absorbing a stream of small graph updates",
         (g.name + ", SSSP from 0, " + std::to_string(ranks) + " ranks, " +
          std::to_string(nbatches) + " batches of 2 ins + 1 del")
             .c_str());

  // ---- incremental leg: one warm service absorbs the whole stream --------
  std::vector<double> inc_ms(nbatches, 0);
  std::vector<std::uint64_t> inc_tuples(nbatches, 0);
  std::vector<serving::BatchStageSeconds> inc_stages(nbatches);
  std::vector<Tuple> inc_rows;
  double lookup_sec = 0;
  std::uint64_t lookups_done = 0;
  bool aborted = false;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    auto prog = queries::build_sssp_program(comm, 1, /*balance_edges=*/false);
    serving::ServingEngine srv(comm, *prog.program, {});
    queries::load_sssp_facts(prog, g, std::vector<value_t>{0});
    srv.start();
    for (int i = 0; i < nbatches; ++i) {
      const auto batch = shard_batch(comm, batches[static_cast<std::size_t>(i)]);
      const auto t0 = Clock::now();
      const auto res = srv.apply_updates(batch);
      if (comm.rank() == 0) {
        inc_ms[static_cast<std::size_t>(i)] = ms_since(t0);
        inc_tuples[static_cast<std::size_t>(i)] = res.tuples_derived;
        inc_stages[static_cast<std::size_t>(i)] = res.seconds;
        if (res.aborted_fault || res.aborted_tuple_limit) aborted = true;
      }
    }
    // Sustained lookups on the warm service: every node, batched through
    // the monotone-cursor read path, repeatedly.
    std::vector<Tuple> keys;
    keys.reserve(nodes);
    for (value_t v = 0; v < nodes; ++v) keys.push_back(Tuple{v});
    const int rounds = 20;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      auto rows = srv.lookup_batch("spath", keys);
      do_not_optimize(rows.size());
    }
    if (comm.rank() == 0) {
      lookup_sec = ms_since(t0) / 1e3;
      lookups_done = static_cast<std::uint64_t>(rounds) * nodes;
    }
    auto rows = srv.lookup("spath", {});
    if (comm.rank() == 0) inc_rows = std::move(rows);
  });

  // ---- recompute leg: a fresh batch run per mutated graph ----------------
  std::vector<double> fresh_ms(nbatches, 0);
  std::vector<std::uint64_t> fresh_tuples(nbatches, 0);
  std::vector<Tuple> fresh_rows;
  graph::Graph cur = g;
  for (int i = 0; i < nbatches; ++i) {
    apply_to_graph(cur, batches[static_cast<std::size_t>(i)]);
    const bool last = i == nbatches - 1;
    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      queries::SsspOptions opts;
      opts.sources = {0};
      opts.collect_distances = last;
      const auto t0 = Clock::now();
      auto r = queries::run_sssp(comm, cur, opts);
      const auto ms = ms_since(t0);
      std::uint64_t local = 0;
      for (const auto& s : r.run.strata) local += s.tuples_generated;
      vmpi::StatsPause pause(comm);
      const auto total = comm.allreduce<std::uint64_t>(local, vmpi::ReduceOp::kSum);
      if (comm.rank() == 0) {
        fresh_ms[static_cast<std::size_t>(i)] = ms;
        fresh_tuples[static_cast<std::size_t>(i)] = total;
        if (last) fresh_rows = std::move(r.distances);
      }
    });
  }

  if (!verdict_only) {
    std::printf("%6s %12s %12s %12s %12s\n", "batch", "inc_ms", "inc_tuples", "fresh_ms",
                "fresh_tuples");
    rule(60);
    for (int i = 0; i < nbatches; ++i) {
      const auto s = static_cast<std::size_t>(i);
      std::printf("%6d %12.2f %12llu %12.2f %12llu\n", i, inc_ms[s],
                  static_cast<unsigned long long>(inc_tuples[s]), fresh_ms[s],
                  static_cast<unsigned long long>(fresh_tuples[s]));
    }
    rule(60);
  }

  std::uint64_t inc_total = 0, fresh_total = 0;
  double fresh_mean = 0;
  for (int i = 0; i < nbatches; ++i) {
    const auto s = static_cast<std::size_t>(i);
    inc_total += inc_tuples[s];
    fresh_total += fresh_tuples[s];
    fresh_mean += fresh_ms[s];
  }
  fresh_mean /= nbatches;

  std::printf("p99 apply latency   : %8.2f ms   (fresh mean %8.2f ms)\n", p99(inc_ms),
              fresh_mean);
  // Where one batch's time goes (rank 0's stage clocks, median batch).
  std::printf("apply stages, ms    :");
  for (const auto& [name, field] :
       {std::pair{"base", &serving::BatchStageSeconds::base},
        std::pair{"wavefront", &serving::BatchStageSeconds::wavefront},
        std::pair{"recovery", &serving::BatchStageSeconds::recovery},
        std::pair{"seed", &serving::BatchStageSeconds::seed},
        std::pair{"fold", &serving::BatchStageSeconds::fold},
        std::pair{"tail", &serving::BatchStageSeconds::tail},
        std::pair{"summary", &serving::BatchStageSeconds::summary},
        std::pair{"commit", &serving::BatchStageSeconds::commit}}) {
    std::vector<double> ms;
    for (const auto& st : inc_stages) ms.push_back(1e3 * (st.*field));
    std::nth_element(ms.begin(), ms.begin() + static_cast<std::ptrdiff_t>(ms.size() / 2),
                     ms.end());
    std::printf(" %s %.3f", name, ms[ms.size() / 2]);
  }
  std::printf("\n");
  std::printf("derived tuple work  : %8llu      (recompute %8llu)\n",
              static_cast<unsigned long long>(inc_total),
              static_cast<unsigned long long>(fresh_total));
  std::printf("lookup throughput   : %8.0f lookups/s (%llu served)\n",
              static_cast<double>(lookups_done) / lookup_sec,
              static_cast<unsigned long long>(lookups_done));

  bool ok = true;
  if (aborted) {
    std::printf("VERDICT FAIL: a batch aborted on the fault path\n");
    ok = false;
  }
  if (inc_rows != fresh_rows) {
    std::printf("VERDICT FAIL: incremental fixpoint != from-scratch (%zu vs %zu rows)\n",
                inc_rows.size(), fresh_rows.size());
    ok = false;
  }
  if (inc_total >= fresh_total) {
    std::printf("VERDICT FAIL: incremental work (%llu tuples) is not strictly cheaper "
                "than recompute (%llu)\n",
                static_cast<unsigned long long>(inc_total),
                static_cast<unsigned long long>(fresh_total));
    ok = false;
  }
  if (ok) {
    std::printf("VERDICT PASS: bit-identical fixpoint, %.1fx less tuple work\n",
                static_cast<double>(fresh_total) / static_cast<double>(inc_total));
  }
  return ok ? 0 : 1;
}
