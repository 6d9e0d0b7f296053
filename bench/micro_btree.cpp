// Microbenchmarks: B-tree storage (the per-rank partition structure whose
// insertion cost dominates PARALAGG at low core counts, per the paper's
// Fig. 5 analysis).

#include <benchmark/benchmark.h>

#include <vector>

#include "storage/btree.hpp"

namespace {

using paralagg::storage::mix64;
using paralagg::storage::Tuple;
using paralagg::storage::TupleBTree;
using paralagg::storage::value_t;

void BM_InsertSequential(benchmark::State& state) {
  const auto n = static_cast<value_t>(state.range(0));
  for (auto _ : state) {
    TupleBTree t(2, 2);
    for (value_t v = 0; v < n; ++v) t.insert(Tuple{v, v});
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InsertSequential)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_InsertRandom(benchmark::State& state) {
  const auto n = static_cast<value_t>(state.range(0));
  for (auto _ : state) {
    TupleBTree t(2, 2);
    for (value_t v = 0; v < n; ++v) t.insert(Tuple{mix64(v), v});
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InsertRandom)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BuildSorted(benchmark::State& state) {
  // The bulk path every empty tree takes: one sorted run, built bottom-up.
  // Same rows as BM_InsertSequential.
  const auto n = static_cast<value_t>(state.range(0));
  std::vector<value_t> run;
  run.reserve(2 * n);
  for (value_t v = 0; v < n; ++v) run.insert(run.end(), {v, v});
  for (auto _ : state) {
    TupleBTree t(2, 2);
    t.build_sorted(run);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildSorted)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FindKey(benchmark::State& state) {
  const auto n = static_cast<value_t>(state.range(0));
  TupleBTree t(2, 1);
  for (value_t v = 0; v < n; ++v) t.insert(Tuple{mix64(v), v});
  value_t probe = 0;
  for (auto _ : state) {
    const value_t key[] = {mix64(probe++ % n)};
    benchmark::DoNotOptimize(t.find_key(std::span<const value_t>(key, 1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindKey)->Arg(10000)->Arg(100000);

void BM_PrefixScan(benchmark::State& state) {
  // 1000 groups of `range` rows each: the access pattern of a local join.
  const auto group_size = static_cast<value_t>(state.range(0));
  TupleBTree t(2, 2);
  for (value_t g = 0; g < 1000; ++g) {
    for (value_t i = 0; i < group_size; ++i) t.insert(Tuple{g, i});
  }
  value_t probe = 0;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    const value_t prefix[] = {probe++ % 1000};
    t.scan_prefix(std::span<const value_t>(prefix, 1),
                  [&](std::span<const value_t> row) { sum += row[1]; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(group_size));
}
BENCHMARK(BM_PrefixScan)->Arg(4)->Arg(32)->Arg(256);

void BM_CursorSortedProbes(benchmark::State& state) {
  // The sorted-batch join access pattern: one monotone cursor driven
  // through ascending join-key prefixes.  Compare against BM_PrefixScan
  // (fresh descent per probe) at the same group size.
  const auto group_size = static_cast<value_t>(state.range(0));
  TupleBTree t(2, 2);
  for (value_t g = 0; g < 1000; ++g) {
    for (value_t i = 0; i < group_size; ++i) t.insert(Tuple{g, i});
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    auto c = t.cursor();
    for (value_t g = 0; g < 1000; ++g) {
      const value_t prefix[] = {g};
      const auto pre = std::span<const value_t>(prefix, 1);
      for (c.seek(pre); c.valid() && c.matches(pre); c.next()) sum += c.row()[1];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(1000 * group_size));
}
BENCHMARK(BM_CursorSortedProbes)->Arg(4)->Arg(32)->Arg(256);

void BM_PayloadUpdateInPlace(benchmark::State& state) {
  // The fused-aggregation hot path: find key, rewrite the payload column.
  const value_t n = 100000;
  TupleBTree t(2, 1);
  for (value_t v = 0; v < n; ++v) t.insert(Tuple{mix64(v), v});
  value_t probe = 0;
  for (auto _ : state) {
    const value_t key[] = {mix64(probe++ % n)};
    const std::span<value_t> row = t.find_key(std::span<const value_t>(key, 1));
    row[1] = probe;
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadUpdateInPlace);

}  // namespace
