// TupleBTree: insertion, bulk building, lookup, prefix scans, cursors,
// structural invariants.

#include "storage/btree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace paralagg::storage {
namespace {

TEST(BTree, EmptyTreeBasics) {
  TupleBTree t(2, 2);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  const value_t key[] = {1, 2};
  EXPECT_TRUE(t.find_key(std::span<const value_t>(key, 2)).empty());
  std::size_t visits = 0;
  t.for_each([&](std::span<const value_t>) { ++visits; });
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(t.check_invariants(), 0u);
}

TEST(BTree, InsertAndFind) {
  TupleBTree t(2, 2);
  EXPECT_TRUE(t.insert(Tuple{3, 4}));
  EXPECT_EQ(t.size(), 1u);
  const value_t key[] = {3, 4};
  const auto found = t.find_key(std::span<const value_t>(key, 2));
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(Tuple(found), (Tuple{3, 4}));
}

TEST(BTree, DuplicateKeyRejected) {
  TupleBTree t(2, 2);
  EXPECT_TRUE(t.insert(Tuple{3, 4}));
  EXPECT_FALSE(t.insert(Tuple{3, 4}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTree, PayloadDistinguishedFromKey) {
  // key_arity 1: second column is payload; same key -> rejected even with
  // a different payload.
  TupleBTree t(2, 1);
  EXPECT_TRUE(t.insert(Tuple{7, 100}));
  EXPECT_FALSE(t.insert(Tuple{7, 200}));
  const value_t key[] = {7};
  const auto found = t.find_key(std::span<const value_t>(key, 1));
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[1], 100u);  // original payload kept
}

TEST(BTree, PayloadMutableInPlace) {
  TupleBTree t(2, 1);
  t.insert(Tuple{7, 100});
  const value_t key[] = {7};
  const std::span<value_t> row = t.find_key(std::span<const value_t>(key, 1));
  ASSERT_FALSE(row.empty());
  row[1] = 55;
  EXPECT_EQ(std::as_const(t).find_key(std::span<const value_t>(key, 1))[1], 55u);
  EXPECT_EQ(t.check_invariants(), 1u);
}

TEST(BTree, ManyInsertionsStaySortedAndComplete) {
  TupleBTree t(2, 2);
  // Insert in a scrambled deterministic order.
  std::vector<value_t> keys;
  for (value_t v = 0; v < 5000; ++v) keys.push_back(mix64(v) % 100000);
  std::set<std::pair<value_t, value_t>> expect;
  for (value_t k : keys) {
    const Tuple row{k, k + 1};
    const bool fresh = expect.emplace(k, k + 1).second;
    EXPECT_EQ(t.insert(row), fresh);
  }
  EXPECT_EQ(t.size(), expect.size());
  EXPECT_EQ(t.check_invariants(), expect.size());

  // for_each must yield key order exactly.
  std::vector<std::pair<value_t, value_t>> seen;
  t.for_each([&](std::span<const value_t> row) { seen.emplace_back(row[0], row[1]); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), expect.begin(), expect.end()));
}

TEST(BTree, FindAfterHeavyLoad) {
  TupleBTree t(1, 1);
  for (value_t v = 0; v < 3000; ++v) t.insert(Tuple{v * 2});  // evens only
  for (value_t v = 0; v < 3000; ++v) {
    const value_t even[] = {v * 2};
    const value_t odd[] = {v * 2 + 1};
    EXPECT_FALSE(t.find_key(std::span<const value_t>(even, 1)).empty()) << v;
    EXPECT_TRUE(t.find_key(std::span<const value_t>(odd, 1)).empty()) << v;
  }
}

TEST(BTree, PrefixScanFindsAllMatches) {
  TupleBTree t(2, 2);
  // 100 groups of 0..group_size rows.
  std::map<value_t, std::size_t> expect;
  for (value_t g = 0; g < 100; ++g) {
    const std::size_t count = static_cast<std::size_t>(g % 7);
    for (std::size_t i = 0; i < count; ++i) {
      t.insert(Tuple{g, static_cast<value_t>(i)});
    }
    expect[g] = count;
  }
  for (value_t g = 0; g < 100; ++g) {
    std::vector<value_t> seconds;
    const value_t prefix[] = {g};
    t.scan_prefix(std::span<const value_t>(prefix, 1),
                  [&](std::span<const value_t> row) { seconds.push_back(row[1]); });
    EXPECT_EQ(seconds.size(), expect[g]) << "group " << g;
    EXPECT_TRUE(std::is_sorted(seconds.begin(), seconds.end()));
  }
}

TEST(BTree, PrefixScanOnAbsentPrefixIsEmpty) {
  TupleBTree t(2, 2);
  for (value_t g = 0; g < 50; ++g) t.insert(Tuple{g * 10, 1});
  const value_t prefix[] = {5};  // between groups
  std::size_t hits = 0;
  t.scan_prefix(std::span<const value_t>(prefix, 1),
                [&](std::span<const value_t>) { ++hits; });
  EXPECT_EQ(hits, 0u);
}

TEST(BTree, PrefixScanFullKeyActsAsLookup) {
  TupleBTree t(3, 2);
  t.insert(Tuple{1, 2, 77});
  const value_t prefix[] = {1, 2};
  std::size_t hits = 0;
  t.scan_prefix(std::span<const value_t>(prefix, 2), [&](std::span<const value_t> row) {
    ++hits;
    EXPECT_EQ(row[2], 77u);
  });
  EXPECT_EQ(hits, 1u);
}

TEST(BTree, PrefixScanSpanningLeafBoundaries) {
  // One giant group forces the group to span many leaves.
  TupleBTree t(2, 2);
  for (value_t i = 0; i < 1000; ++i) t.insert(Tuple{42, i});
  t.insert(Tuple{41, 0});
  t.insert(Tuple{43, 0});
  std::size_t hits = 0;
  const value_t prefix[] = {42};
  t.scan_prefix(std::span<const value_t>(prefix, 1),
                [&](std::span<const value_t>) { ++hits; });
  EXPECT_EQ(hits, 1000u);
}

TEST(BTree, PrefixScanEmptyPrefixVisitsEverything) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 1234; ++v) t.insert(Tuple{mix64(v) % 5000, v});
  std::size_t hits = 0;
  value_t prev_first = 0;
  bool first = true;
  t.scan_prefix(std::span<const value_t>{}, [&](std::span<const value_t> row) {
    if (!first) {
      EXPECT_GE(row[0], prev_first);
    }
    prev_first = row[0];
    first = false;
    ++hits;
  });
  EXPECT_EQ(hits, t.size());
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, PrefixShorterThanKeyArity) {
  // key_arity 3, scans over 1- and 2-column prefixes.
  TupleBTree t(3, 3);
  for (value_t a = 0; a < 8; ++a) {
    for (value_t b = 0; b < 8; ++b) {
      for (value_t c = 0; c < 3; ++c) t.insert(Tuple{a, b, c});
    }
  }
  const value_t one[] = {5};
  std::size_t hits1 = 0;
  t.scan_prefix(std::span<const value_t>(one, 1), [&](std::span<const value_t> row) {
    EXPECT_EQ(row[0], 5u);
    ++hits1;
  });
  EXPECT_EQ(hits1, 8u * 3u);

  const value_t two[] = {5, 2};
  std::size_t hits2 = 0;
  t.scan_prefix(std::span<const value_t>(two, 2), [&](std::span<const value_t> row) {
    EXPECT_EQ(row[0], 5u);
    EXPECT_EQ(row[1], 2u);
    ++hits2;
  });
  EXPECT_EQ(hits2, 3u);
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, SeekPastLastKey) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 200; ++v) t.insert(Tuple{v, v});
  auto c = t.cursor();
  const value_t beyond[] = {1000};
  c.seek(std::span<const value_t>(beyond, 1));
  EXPECT_FALSE(c.valid());
  // Further seeks beyond the end stay at the end (and stay cheap), but a
  // seek back inside the key space must recover via a fresh descent.
  const value_t farther[] = {2000};
  c.seek(std::span<const value_t>(farther, 1));
  EXPECT_FALSE(c.valid());
  const value_t inside[] = {42};
  c.seek(std::span<const value_t>(inside, 1));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.row()[0], 42u);
  EXPECT_EQ(t.check_invariants(), t.size());
}

TEST(BTree, SeekIntoJustSplitLeaf) {
  // Drive the tree through its first leaf split (kLeafCap = 32) and seek
  // around the split boundary after every insert.
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 40; ++v) {
    ASSERT_TRUE(t.insert(Tuple{v * 2, v}));
    ASSERT_EQ(t.check_invariants(), static_cast<std::size_t>(v + 1));
    auto c = t.cursor();
    // Seek to each stored key and to the gap just before it.
    for (value_t probe = 0; probe <= v; ++probe) {
      const value_t exact[] = {probe * 2};
      c.seek(std::span<const value_t>(exact, 1));
      ASSERT_TRUE(c.valid()) << "insert " << v << " probe " << probe;
      EXPECT_EQ(c.row()[0], probe * 2);
      const value_t gap[] = {probe * 2 + 1};
      c.seek(std::span<const value_t>(gap, 1));  // lower bound = next key
      if (probe < v) {
        ASSERT_TRUE(c.valid());
        EXPECT_EQ(c.row()[0], (probe + 1) * 2);
      } else {
        EXPECT_FALSE(c.valid());
      }
    }
  }
}

TEST(BTree, CursorSeekFirstMatchesForEach) {
  TupleBTree t(3, 2);
  for (value_t v = 0; v < 2500; ++v) t.insert(Tuple{mix64(v) % 700, v % 5, v});
  std::vector<Tuple> via_for_each;
  t.for_each([&](std::span<const value_t> row) { via_for_each.emplace_back(row); });
  std::vector<Tuple> via_cursor;
  auto c = t.cursor();
  for (c.seek_first(); c.valid(); c.next()) via_cursor.emplace_back(c.row());
  EXPECT_EQ(via_for_each, via_cursor);
}

TEST(BTree, CursorEmptyTree) {
  TupleBTree t(2, 1);
  auto c = t.cursor();
  c.seek_first();
  EXPECT_FALSE(c.valid());
  const value_t key[] = {3};
  c.seek(std::span<const value_t>(key, 1));
  EXPECT_FALSE(c.valid());
}

TEST(BTree, CursorMonotoneSeeksMatchFreshScans) {
  // Differential: a single cursor driven through an ascending probe
  // sequence must enumerate exactly what per-probe scan_prefix does.
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 4000; ++v) t.insert(Tuple{mix64(v) % 500, v});
  std::vector<value_t> probes;
  for (value_t p = 0; p < 600; ++p) probes.push_back(p);  // hits and misses
  auto c = t.cursor();
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    const auto pre = std::span<const value_t>(prefix, 1);
    std::vector<value_t> fresh;
    t.scan_prefix(pre, [&](std::span<const value_t> row) { fresh.push_back(row[1]); });
    std::vector<value_t> resumed;
    for (c.seek(pre); c.valid() && c.matches(pre); c.next()) resumed.push_back(c.row()[1]);
    EXPECT_EQ(fresh, resumed) << "probe " << p;
  }
}

TEST(BTree, CursorNonMonotoneSeekIsCorrect) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 3000; ++v) t.insert(Tuple{v, v});
  auto c = t.cursor();
  // Descending and zig-zag probes: always globally correct, just slower.
  const value_t seq[] = {2500, 100, 2400, 50, 2999, 0, 1500, 1500};
  for (value_t p : seq) {
    const value_t prefix[] = {p};
    c.seek(std::span<const value_t>(prefix, 1));
    ASSERT_TRUE(c.valid()) << p;
    EXPECT_EQ(c.row()[0], p);
  }
}

TEST(BTree, CursorPositionRestoreReplaysRange) {
  TupleBTree t(2, 2);
  for (value_t i = 0; i < 300; ++i) t.insert(Tuple{7, i});
  t.insert(Tuple{6, 0});
  t.insert(Tuple{8, 0});
  auto c = t.cursor();
  const value_t prefix[] = {7};
  const auto pre = std::span<const value_t>(prefix, 1);
  c.seek(pre);
  const auto begin = c.position();
  std::size_t n = 0;
  while (c.valid() && c.matches(pre)) {
    ++n;
    c.next();
  }
  ASSERT_EQ(n, 300u);
  // Replay the recorded range twice without re-matching.
  for (int rep = 0; rep < 2; ++rep) {
    c.restore(begin);
    value_t want = 0;
    for (std::size_t i = 0; i < n; ++i, c.next()) {
      ASSERT_TRUE(c.valid());
      EXPECT_EQ(c.row()[0], 7u);
      EXPECT_EQ(c.row()[1], want++);
    }
  }
}

TEST(BTree, SortedSeeksCostFewerComparisonsThanFreshScans) {
  // The cursor's contract, on the comparison counter: the same ascending
  // probe set through one monotone cursor must cost strictly fewer key
  // comparisons than per-probe fresh descents.
  TupleBTree t(2, 1);
  for (value_t v = 0; v < 20000; ++v) t.insert(Tuple{mix64(v) % 30000, v});

  std::vector<value_t> probes;
  for (value_t p = 0; p < 30000; p += 3) probes.push_back(p);

  t.reset_counters();
  std::size_t sink = 0;
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    t.scan_prefix(std::span<const value_t>(prefix, 1),
                  [&](std::span<const value_t>) { ++sink; });
  }
  const auto fresh_cmps = t.comparisons();

  t.reset_counters();
  std::size_t sink2 = 0;
  auto c = t.cursor();
  for (value_t p : probes) {
    const value_t prefix[] = {p};
    const auto pre = std::span<const value_t>(prefix, 1);
    for (c.seek(pre); c.valid() && c.matches(pre); c.next()) ++sink2;
  }
  const auto sorted_cmps = t.comparisons();

  EXPECT_EQ(sink, sink2);
  EXPECT_LT(sorted_cmps, fresh_cmps);
}

TEST(BTree, ClearEmptiesTree) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 500; ++v) t.insert(Tuple{v, v});
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.check_invariants(), 0u);
  EXPECT_TRUE(t.insert(Tuple{1, 1}));
}

TEST(BTree, MoveTransfersOwnership) {
  TupleBTree t(2, 2);
  for (value_t v = 0; v < 200; ++v) t.insert(Tuple{v, v});
  TupleBTree moved = std::move(t);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_EQ(moved.check_invariants(), 200u);
}

TEST(BTree, CountsComparisonsMonotonically) {
  TupleBTree t(1, 1);
  for (value_t v = 0; v < 100; ++v) t.insert(Tuple{v});
  const auto after_insert = t.comparisons();
  EXPECT_GT(after_insert, 0u);
  const value_t key[] = {50};
  (void)std::as_const(t).find_key(std::span<const value_t>(key, 1));
  EXPECT_GT(t.comparisons(), after_insert);
  t.reset_counters();
  EXPECT_EQ(t.comparisons(), 0u);
}

TEST(BTree, FuzzAgainstStdMap) {
  // Randomized differential test: interleaved inserts, lookups, payload
  // rewrites, prefix scans, and monotone cursor batches against a
  // std::map reference.
  TupleBTree tree(3, 2);
  std::map<std::pair<value_t, value_t>, value_t> ref;
  value_t state = 12345;
  const auto rnd = [&](value_t bound) {
    state = mix64(state);
    return state % bound;
  };
  for (int op = 0; op < 20000; ++op) {
    const value_t k1 = rnd(64), k2 = rnd(16);
    switch (rnd(5)) {
      case 0: {  // insert
        const value_t payload = rnd(1000);
        const bool fresh = ref.emplace(std::make_pair(k1, k2), payload).second;
        EXPECT_EQ(tree.insert(Tuple{k1, k2, payload}), fresh);
        break;
      }
      case 1: {  // point lookup
        const value_t key[] = {k1, k2};
        const auto row = std::as_const(tree).find_key(std::span<const value_t>(key, 2));
        const auto it = ref.find({k1, k2});
        if (it == ref.end()) {
          EXPECT_TRUE(row.empty());
        } else {
          ASSERT_FALSE(row.empty());
          EXPECT_EQ(row[2], it->second);
        }
        break;
      }
      case 2: {  // payload rewrite (the fused-aggregation hot path)
        const value_t key[] = {k1, k2};
        const std::span<value_t> row = tree.find_key(std::span<const value_t>(key, 2));
        auto it = ref.find({k1, k2});
        ASSERT_EQ(!row.empty(), it != ref.end());
        if (!row.empty()) {
          const value_t v = rnd(1000);
          row[2] = v;
          it->second = v;
        }
        break;
      }
      case 3: {  // prefix scan over k1
        const value_t prefix[] = {k1};
        std::vector<std::pair<value_t, value_t>> got;
        tree.scan_prefix(
            std::span<const value_t>(prefix, 1),
            [&](std::span<const value_t> row) { got.emplace_back(row[1], row[2]); });
        std::vector<std::pair<value_t, value_t>> want;
        for (auto it = ref.lower_bound({k1, 0}); it != ref.end() && it->first.first == k1;
             ++it) {
          want.emplace_back(it->first.second, it->second);
        }
        EXPECT_EQ(got, want) << "prefix " << k1 << " at op " << op;
        break;
      }
      default: {  // ascending cursor batch over a few prefixes from k1
        auto c = tree.cursor();
        for (value_t p = k1; p < k1 + 5; ++p) {
          const value_t prefix[] = {p};
          const auto pre = std::span<const value_t>(prefix, 1);
          std::vector<std::pair<value_t, value_t>> got;
          for (c.seek(pre); c.valid() && c.matches(pre); c.next()) {
            got.emplace_back(c.row()[1], c.row()[2]);
          }
          std::vector<std::pair<value_t, value_t>> want;
          for (auto it = ref.lower_bound({p, 0}); it != ref.end() && it->first.first == p;
               ++it) {
            want.emplace_back(it->first.second, it->second);
          }
          EXPECT_EQ(got, want) << "cursor prefix " << p << " at op " << op;
        }
        break;
      }
    }
  }
  EXPECT_EQ(tree.check_invariants(), ref.size());
}

TEST(BTree, CheckInvariantsThrowsOnBrokenOrder) {
  // build_sorted trusts its input; a descending run yields a tree whose
  // rows are out of order, and the check must say so in every build type.
  TupleBTree t(2, 2);
  std::vector<value_t> run;
  for (value_t v = 100; v > 0; --v) run.insert(run.end(), {v, v});
  t.build_sorted(run);
  EXPECT_THROW((void)t.check_invariants(), std::logic_error);
}

// -- build_sorted vs point inserts ---------------------------------------------

struct BuildSortedParam {
  std::size_t rows;
  std::size_t arity;
  std::size_t key_arity;
};

class BuildSortedDiff : public ::testing::TestWithParam<BuildSortedParam> {};

/// Seeded random row: key columns drawn from a small domain so later
/// inserts hit both present and absent keys.
Tuple random_row(value_t& state, std::size_t arity, value_t domain) {
  Tuple row;
  for (std::size_t c = 0; c < arity; ++c) {
    state = mix64(state);
    row.push_back(state % domain);
  }
  return row;
}

std::vector<Tuple> rows_of(const TupleBTree& t) {
  std::vector<Tuple> out;
  t.for_each([&](std::span<const value_t> row) { out.emplace_back(row); });
  return out;
}

TEST_P(BuildSortedDiff, MatchesPointInsertsThroughLaterMutations) {
  const auto p = GetParam();
  const value_t domain = 4 * static_cast<value_t>(p.rows) + 64;
  value_t state = 0x5eed + p.rows;

  // Distinct keys, in key order, then a point-insert twin fed the same
  // rows in a scrambled order.
  std::map<Tuple, Tuple> by_key;
  while (by_key.size() < p.rows) {
    Tuple row = random_row(state, p.arity, domain);
    by_key.emplace(Tuple(row.prefix(p.key_arity)), row);
  }
  std::vector<value_t> run;
  std::vector<Tuple> scrambled;
  for (const auto& [key, row] : by_key) {
    run.insert(run.end(), row.view().begin(), row.view().end());
    scrambled.push_back(row);
  }
  for (std::size_t i = scrambled.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(scrambled[i - 1], scrambled[state % i]);
  }

  TupleBTree bulk(p.arity, p.key_arity);
  bulk.insert(random_row(state, p.arity, domain));  // build_sorted replaces contents
  bulk.build_sorted(run);
  TupleBTree point(p.arity, p.key_arity);
  for (const auto& row : scrambled) ASSERT_TRUE(point.insert(row));

  ASSERT_EQ(bulk.size(), p.rows);
  ASSERT_EQ(bulk.check_invariants(), p.rows);
  ASSERT_EQ(point.check_invariants(), p.rows);
  ASSERT_EQ(rows_of(bulk), rows_of(point));

  // Bulk-built leaves are full: an insert below the first stored key lands
  // in the first leaf and splits it at once.  Then empty a leaf's worth of
  // keys from the front, which leaves an empty leaf in the chain.
  if (!by_key.empty()) {
    Tuple low(by_key.begin()->first.view());
    if (low[p.key_arity - 1] > 0) {
      --low[p.key_arity - 1];
      while (low.size() < p.arity) low.push_back(7);
      EXPECT_EQ(bulk.insert(low), point.insert(low));
    }
  }
  std::size_t erased = 0;
  for (auto it = by_key.begin(); it != by_key.end() && erased < TupleBTree::kLeafCap + 1;
       ++it, ++erased) {
    EXPECT_EQ(bulk.erase_key(it->first.view()), point.erase_key(it->first.view()));
  }
  ASSERT_EQ(bulk.check_invariants(), point.check_invariants());
  {
    // Both cursors must hop the emptied leaf to the same first row.
    auto cb = bulk.cursor();
    auto cp = point.cursor();
    cb.seek_first();
    cp.seek_first();
    ASSERT_EQ(cb.valid(), cp.valid());
    if (cb.valid()) {
      EXPECT_EQ(Tuple(cb.row()), Tuple(cp.row()));
    }
  }

  // Seeded random mutation/lookup mix, compared op by op.
  const int ops = static_cast<int>(std::min<std::size_t>(20000, 4 * p.rows + 200));
  for (int op = 0; op < ops; ++op) {
    state = mix64(state);
    const Tuple row = random_row(state, p.arity, domain);
    const auto key = row.prefix(p.key_arity);
    switch (state % 4) {
      case 0:
        ASSERT_EQ(bulk.insert(row), point.insert(row)) << "insert at op " << op;
        break;
      case 1:
        ASSERT_EQ(bulk.erase_key(key), point.erase_key(key)) << "erase at op " << op;
        break;
      case 2: {
        const auto a = std::as_const(bulk).find_key(key);
        const auto b = std::as_const(point).find_key(key);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "find at op " << op;
        break;
      }
      default: {
        // An ascending batch of seeks over 1-column prefixes.
        auto cb = bulk.cursor();
        auto cp = point.cursor();
        for (value_t v = row[0]; v < row[0] + 8; ++v) {
          const value_t prefix[] = {v};
          const auto pre = std::span<const value_t>(prefix, 1);
          cb.seek(pre);
          cp.seek(pre);
          ASSERT_EQ(cb.valid(), cp.valid()) << "seek at op " << op;
          if (cb.valid()) {
            ASSERT_EQ(Tuple(cb.row()), Tuple(cp.row())) << "seek at op " << op;
          }
        }
        break;
      }
    }
  }
  ASSERT_EQ(bulk.check_invariants(), point.size());
  EXPECT_EQ(rows_of(bulk), rows_of(point));
}

constexpr std::size_t kLeaf = TupleBTree::kLeafCap;
constexpr std::size_t kTwoLevels = TupleBTree::kLeafCap * TupleBTree::kInnerCap + 1;

INSTANTIATE_TEST_SUITE_P(
    RunSizes, BuildSortedDiff,
    ::testing::Values(BuildSortedParam{0, 3, 2}, BuildSortedParam{1, 3, 2},
                      BuildSortedParam{kLeaf, 3, 2}, BuildSortedParam{kLeaf + 1, 3, 2},
                      BuildSortedParam{kTwoLevels, 3, 2}, BuildSortedParam{100000, 3, 2},
                      BuildSortedParam{0, 2, 2}, BuildSortedParam{1, 2, 2},
                      BuildSortedParam{kLeaf, 2, 2}, BuildSortedParam{kLeaf + 1, 2, 2},
                      BuildSortedParam{kTwoLevels, 2, 2}, BuildSortedParam{100000, 2, 2}));

TEST(BTree, SortRunIsStableAndCounted) {
  TupleBTree t(2, 1);
  // Keys 3,1,3,2,1 with payloads recording input position.
  std::vector<value_t> run = {3, 0, 1, 1, 3, 2, 2, 3, 1, 4};
  t.sort_run(run);
  EXPECT_EQ(run, (std::vector<value_t>{1, 1, 1, 4, 2, 3, 3, 0, 3, 2}));
  EXPECT_GT(t.comparisons(), 0u);
}

// Parameterized sweep: invariants hold across arities and orderings.
struct BTreeSweepParam {
  std::size_t arity;
  std::size_t key_arity;
  std::size_t count;
  bool reverse;
};

class BTreeSweep : public ::testing::TestWithParam<BTreeSweepParam> {};

TEST_P(BTreeSweep, InvariantsAndMembership) {
  const auto p = GetParam();
  TupleBTree t(p.arity, p.key_arity);
  std::set<Tuple> inserted;
  for (std::size_t i = 0; i < p.count; ++i) {
    const value_t base = p.reverse ? static_cast<value_t>(p.count - i) : static_cast<value_t>(i);
    Tuple row;
    for (std::size_t c = 0; c < p.arity; ++c) row.push_back(mix64(base + c * 7919) % 997);
    if (t.insert(row)) inserted.insert(row);
  }
  EXPECT_EQ(t.check_invariants(), t.size());
  // Every inserted key must be findable (keys are tuple prefixes, and a
  // later row with the same key prefix was rejected, so prefix lookup by
  // the stored row's key must return a row).
  for (const auto& row : inserted) {
    EXPECT_FALSE(t.find_key(row.prefix(p.key_arity)).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeSweep,
    ::testing::Values(BTreeSweepParam{1, 1, 2000, false}, BTreeSweepParam{1, 1, 2000, true},
                      BTreeSweepParam{2, 1, 2000, false}, BTreeSweepParam{2, 2, 2000, true},
                      BTreeSweepParam{3, 2, 3000, false}, BTreeSweepParam{4, 3, 1500, true},
                      BTreeSweepParam{5, 5, 1000, false}));

}  // namespace
}  // namespace paralagg::storage
