// Graph generators, IO, and the dataset zoo.

#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <string_view>

#include "graph/io.hpp"
#include "graph/zoo.hpp"

namespace paralagg::graph {
namespace {

TEST(Rng, DeterministicAndSpread) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Rng(42).next(), c.next());
  std::set<std::uint64_t> seen;
  Rng r(7);
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(1'000'000));
  EXPECT_GT(seen.size(), 990u);
  for (int i = 0; i < 100; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rmat, ShapeAndDeterminism) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const Graph g = make_rmat(p);
  EXPECT_EQ(g.num_nodes, 1024u);
  EXPECT_EQ(g.num_edges(), 8192u);
  for (const auto& e : g.edges) {
    EXPECT_LT(e.src, g.num_nodes);
    EXPECT_LT(e.dst, g.num_nodes);
    EXPECT_NE(e.src, e.dst);  // self loops dropped
    EXPECT_GE(e.weight, 1u);
    EXPECT_LE(e.weight, p.max_weight);
  }
  EXPECT_EQ(make_rmat(p).edges, g.edges);  // same seed, same graph
  p.seed = 99;
  EXPECT_NE(make_rmat(p).edges, g.edges);
}

TEST(Rmat, PowerLawSkewExceedsUniform) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  const Graph rmat = make_rmat(p);
  const Graph er = make_erdos_renyi(1 << 12, rmat.num_edges());
  // The whole reason RMAT stands in for Twitter: hub skew.
  EXPECT_GT(rmat.degree_skew(), 4.0 * er.degree_skew());
}

TEST(ErdosRenyi, ShapeAndNoSelfLoops) {
  const Graph g = make_erdos_renyi(100, 500, 10, 3);
  EXPECT_EQ(g.num_nodes, 100u);
  EXPECT_EQ(g.num_edges(), 500u);
  for (const auto& e : g.edges) EXPECT_NE(e.src, e.dst);
}

TEST(Grid, MeshStructure) {
  const Graph g = make_grid(5, 4);
  EXPECT_EQ(g.num_nodes, 20u);
  // 2 * (horizontal (w-1)*h + vertical w*(h-1)) = 2 * (16 + 15) = 62.
  EXPECT_EQ(g.num_edges(), 62u);
  // Meshes are balanced: low skew.
  EXPECT_LT(g.degree_skew(), 2.0);
}

TEST(Chain, PathGraph) {
  const Graph g = make_chain(10);
  EXPECT_EQ(g.num_edges(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(g.edges[i].src, i);
    EXPECT_EQ(g.edges[i].dst, i + 1);
  }
}

TEST(Star, HubHoldsEverything) {
  const Graph g = make_star(100);
  EXPECT_EQ(g.num_edges(), 100u);
  for (const auto& e : g.edges) EXPECT_EQ(e.src, 0u);
  // degree_skew averages over *source* nodes, of which a star has exactly
  // one — the skew a star exposes is in the bucket distribution, not here.
  EXPECT_EQ(g.source_nodes().size(), 1u);
  EXPECT_DOUBLE_EQ(g.degree_skew(), 1.0);
}

TEST(Complete, AllPairs) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 30u);
}

TEST(RandomTree, ParentsPrecedeChildren) {
  const Graph g = make_random_tree(50);
  EXPECT_EQ(g.num_edges(), 49u);
  for (const auto& e : g.edges) EXPECT_LT(e.src, e.dst);
}

TEST(Components, DisjointByConstruction) {
  const Graph g = make_components(4, 10, 5);
  EXPECT_EQ(g.num_nodes, 40u);
  for (const auto& e : g.edges) {
    EXPECT_EQ(e.src / 10, e.dst / 10);  // never cross component boundaries
  }
}

TEST(PlantHub, ExactDegreeAndDeterminism) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  Graph g = make_rmat(p);
  const std::uint64_t m = g.num_edges();
  plant_hub(g, 0.25, 3, 11);
  EXPECT_EQ(g.num_edges(), m);  // rewrites edges, never adds or drops
  std::uint64_t hub_degree = 0;
  for (const auto& e : g.edges) {
    if (e.src == 3) ++hub_degree;
    EXPECT_NE(e.src, e.dst);  // rewiring must not introduce self loops
  }
  EXPECT_EQ(hub_degree, static_cast<std::uint64_t>(0.25 * static_cast<double>(m) + 0.5));
  EXPECT_EQ(g.name, "rmat-s10-e8+hub");
  // Same (graph, fraction, hub, seed) rewires the exact same edges — the
  // bench relies on every rank building an identical hubbed graph.
  Graph h = make_rmat(p);
  plant_hub(h, 0.25, 3, 11);
  EXPECT_EQ(h.edges, g.edges);
  Graph other = make_rmat(p);
  plant_hub(other, 0.25, 3, 12);
  EXPECT_NE(other.edges, g.edges);
}

TEST(PlantHub, KeepsLargerExistingDegree) {
  // A star's hub already owns every edge; asking for half of them is a no-op.
  Graph g = make_star(100);
  const auto before = g.edges;
  plant_hub(g, 0.5, 0, 1);
  EXPECT_EQ(g.edges, before);
  EXPECT_EQ(g.name, "star-100+hub");
}

TEST(Graph, SymmetrizedDoublesEdges) {
  const Graph g = make_chain(5);
  const Graph s = g.symmetrized();
  EXPECT_EQ(s.num_edges(), 2 * g.num_edges());
  EXPECT_EQ(s.edges[1], (Edge{1, 0, s.edges[0].weight}));
}

TEST(Graph, SourceNodesSortedUnique) {
  const Graph g = make_star(10);
  const auto srcs = g.source_nodes();
  ASSERT_EQ(srcs.size(), 1u);
  EXPECT_EQ(srcs[0], 0u);
}

TEST(Graph, PickSourcesHaveOutEdges) {
  const Graph g = make_rmat({.scale = 8, .edge_factor = 4});
  const auto sources = g.pick_sources(10);
  EXPECT_FALSE(sources.empty());
  const auto srcs = g.source_nodes();
  for (const auto s : sources) {
    EXPECT_TRUE(std::binary_search(srcs.begin(), srcs.end(), s));
  }
}

// Writes `text` verbatim to a temp file named `name` and returns its path.
std::string write_text(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return path;
}

// The message of the runtime_error read_edge_list(path) throws, or "" if it
// returns normally.
std::string read_error(const std::string& path) {
  try {
    (void)read_edge_list(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr value_t kMaxValue = std::numeric_limits<value_t>::max();

// 1 + the largest id in `edges`: the node count a file of them reads back as.
value_t node_count(const std::vector<Edge>& edges) {
  value_t nodes = 0;
  for (const auto& e : edges) nodes = std::max({nodes, e.src + 1, e.dst + 1});
  return nodes;
}

TEST(Io, RoundTripsEdgeList) {
  const Graph g = make_erdos_renyi(50, 200, 10, 5);
  const std::string path = testing::TempDir() + "/paralagg_io_test.el";
  write_edge_list(g, path);
  const Graph back = read_edge_list(path, "roundtrip");
  EXPECT_EQ(back.edges, g.edges);
  EXPECT_EQ(back.name, "roundtrip");
  std::remove(path.c_str());
}

TEST(Io, GrammarAccepts) {
  struct Case {
    const char* what;
    std::string text;
    std::vector<Edge> edges;
  };
  const std::vector<Case> cases = {
      {"comments and default weight", "# comment\n% matrix-market comment\n1 2\n3 4 9\n",
       {{1, 2, 1}, {3, 4, 9}}},
      {"tabs", "0\t1\t5\n2 \t 3\n", {{0, 1, 5}, {2, 3, 1}}},
      {"CRLF", "# header\r\n0 1 2\r\n3 4\r\n", {{0, 1, 2}, {3, 4, 1}}},
      {"no trailing newline", "0 1\n2 3 4", {{0, 1, 1}, {2, 3, 4}}},
      {"whitespace-only lines", "0 1\n   \n\t\r\n\n2 3\n \r\n", {{0, 1, 1}, {2, 3, 1}}},
      {"inline comments", "0 1 # note\n  # indented\n2 3 7 %pct\n4 5\t#\n",
       {{0, 1, 1}, {2, 3, 7}, {4, 5, 1}}},
      {"leading spaces and zeros", "  007 08 \n", {{7, 8, 1}}},
      {"largest id and weight", "18446744073709551614 0 18446744073709551615\n",
       {{kMaxValue - 1, 0, kMaxValue}}},
      {"empty file", "", {}},
      {"comments only", "# a\n% b\n", {}},
  };
  for (const auto& c : cases) {
    const std::string path = write_text("paralagg_io_accept.el", c.text);
    const Graph g = read_edge_list(path);
    EXPECT_EQ(g.edges, c.edges) << c.what;
    EXPECT_EQ(g.num_nodes, node_count(c.edges)) << c.what;
    std::remove(path.c_str());
  }
}

TEST(Io, GrammarRejectsWithPathAndLine) {
  struct Case {
    std::string text;
    std::size_t line;
  };
  const std::vector<Case> cases = {
      {"-1 2\n", 1},                    // sign: would wrap to 2^64-1
      {"18446744073709551615 0\n", 1},  // id 2^64-1: node count would wrap
      {"0 18446744073709551615\n", 1},
      {"18446744073709551616 0\n", 1},  // out of range
      {"1 2 0.5\n", 1},                 // fraction: no truncation to 0
      {"1 2junk\n", 1},                 // trailing characters
      {"1 2 abc\n", 1},
      {"not an edge\n", 1},
      {"+1 2\n", 1},
      {"0x1 2\n", 1},
      {"0 1#x\n", 1},                   // '#' only starts a comment as a token
      {"0 1\n1\n", 2},                  // too few values
      {"0 1 2 3\n", 1},                 // too many values
      {"# c\n\n0 1\n\r\n1 x\n", 5},     // skipped lines still count
      {"0 1\r\n2 3\r\n4 5 -6\r\n", 3},
      {"0 1\n2 3 \v\n", 2},             // only space, tab and CR are blank
  };
  for (const auto& c : cases) {
    const std::string path = write_text("paralagg_io_reject.el", c.text);
    const std::string prefix = path + ":" + std::to_string(c.line) + ": ";
    EXPECT_EQ(read_error(path).rfind(prefix, 0), 0u)
        << "text '" << c.text << "' gave '" << read_error(path) << "'";
    std::remove(path.c_str());
  }
  EXPECT_EQ(read_error("/nonexistent/nope.el"), "/nonexistent/nope.el: cannot open");
}

TEST(Io, ScannerReadsReadmeUpdateBatch) {
  // The update-batch example from README.md, verbatim.
  const std::string path = write_text("paralagg_io_updates.txt",
                                      "+ 17 4012 3      # insert edge 17 -> 4012, weight 3\n"
                                      "- 99 1024 7      # delete the stored edge 99 -> 1024, "
                                      "weight 7\n");
  RowScanner scan(path);
  ASSERT_TRUE(scan.next());
  EXPECT_EQ(std::vector<std::string_view>(scan.tokens().begin(), scan.tokens().end()),
            (std::vector<std::string_view>{"+", "17", "4012", "3"}));
  EXPECT_EQ(scan.value(2), 4012u);
  ASSERT_TRUE(scan.next());
  EXPECT_EQ(std::vector<std::string_view>(scan.tokens().begin(), scan.tokens().end()),
            (std::vector<std::string_view>{"-", "99", "1024", "7"}));
  EXPECT_THROW((void)scan.value(0), std::runtime_error);
  EXPECT_FALSE(scan.next());
  std::remove(path.c_str());
}

// Many times the scanner's 64 KiB read block.
constexpr std::size_t kOverBlock = std::size_t{3} << 19;

TEST(Io, RoundTripAcrossBlockBoundaries) {
  const Graph g = make_twitter_like(14, 10);
  const std::string path = testing::TempDir() + "/paralagg_io_big.el";
  write_edge_list(g, path);
  ASSERT_GT(std::ifstream(path, std::ios::ate).tellg(), std::streamoff(kOverBlock));
  const Graph back = read_edge_list(path, "big");
  EXPECT_EQ(back.edges, g.edges);  // edge for edge, in order
  // RMAT leaves the top ids isolated; a file only knows the ids it holds.
  EXPECT_EQ(back.num_nodes, node_count(g.edges));
  std::remove(path.c_str());
}

TEST(Io, CommentLineLongerThanBlock) {
  const std::string long_comment = "# " + std::string(kOverBlock, 'x') + "\n";
  const std::string path = write_text(
      "paralagg_io_long.el", long_comment + "0 1\n2 3 #" + std::string(kOverBlock, 'y') +
                                 "\n" + long_comment + "4 5 6\n7 z\n");
  const std::string prefix = path + ":6: ";
  EXPECT_EQ(read_error(path).rfind(prefix, 0), 0u) << read_error(path);
  const std::string ok = write_text("paralagg_io_long_ok.el",
                                    long_comment + "0 1\n" + long_comment + "4 5 6");
  EXPECT_EQ(read_edge_list(ok).edges, (std::vector<Edge>{{0, 1, 1}, {4, 5, 6}}));
  std::remove(path.c_str());
  std::remove(ok.c_str());
}

// A deliberately naive restatement of the edge-list grammar, sharing no code
// with the scanner: the edges the text holds, or the first bad line.
struct Reference {
  std::vector<Edge> edges;
  std::size_t bad_line = 0;
};

Reference reference_parse(const std::string& text) {
  Reference ref;
  std::size_t line = 0;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t stop = nl == std::string::npos ? text.size() : nl;
    ++line;
    std::vector<std::string> toks(1);
    for (std::size_t i = start; i < stop; ++i) {
      const char c = text[i];
      if (c == ' ' || c == '\t' || c == '\r') {
        if (!toks.back().empty()) toks.emplace_back();
      } else {
        toks.back() += c;
      }
    }
    if (toks.back().empty()) toks.pop_back();
    for (std::size_t t = 0; t < toks.size(); ++t) {
      if (toks[t][0] == '#' || toks[t][0] == '%') {
        toks.resize(t);
        break;
      }
    }
    start = stop + 1;
    if (toks.empty()) continue;
    std::vector<value_t> vals;
    for (const auto& tok : toks) {
      value_t v = 0;
      for (const char c : tok) {
        const value_t d = static_cast<value_t>(c - '0');
        if (c < '0' || c > '9' || v > (kMaxValue - d) / 10) {
          ref.bad_line = line;
          return ref;
        }
        v = v * 10 + d;
      }
      vals.push_back(v);
    }
    if (vals.size() < 2 || vals.size() > 3 || vals[0] == kMaxValue || vals[1] == kMaxValue) {
      ref.bad_line = line;
      return ref;
    }
    ref.edges.push_back(Edge{vals[0], vals[1], vals.size() == 3 ? vals[2] : 1});
  }
  return ref;
}

// Valid edge-list text: edges with and without weights, comments, blank
// lines, tabs and CRLF endings.
std::string valid_text(Rng& rng, std::size_t lines) {
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) {
    switch (rng.below(8)) {
      case 0: text += "# comment " + std::to_string(rng.next()); break;
      case 1: text += "   "; break;
      case 2:
        text += std::to_string(rng.next()) + "\t" + std::to_string(rng.below(100));
        break;
      default:
        text += std::to_string(rng.below(1000)) + " " + std::to_string(rng.below(1000)) + " " +
                std::to_string(rng.below(50));
    }
    text += rng.below(4) == 0 ? "\r\n" : "\n";
  }
  return text;
}

// Flips, inserts or truncates at a random offset in [lo, text.size()).
void mutate(Rng& rng, std::string& text, std::size_t lo) {
  static constexpr char kBytes[] = {'-', '+', '.', 'a', 'x', 'e', '\r', '\t', ' ', '\n',
                                    '#', '%', '0', '9', '\v', '\0'};
  if (text.size() <= lo) return;
  const std::size_t at = lo + rng.below(text.size() - lo);
  const char byte = kBytes[rng.below(sizeof kBytes)];
  switch (rng.below(4)) {
    case 0: text[at] = byte; break;
    case 1: text.insert(at, 1, byte); break;
    case 2: text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8))); break;
    default: text.resize(at); break;
  }
}

TEST(Io, DifferentialFuzzAgainstReference) {
  Rng rng(20231);
  const std::string path = testing::TempDir() + "/paralagg_io_fuzz.el";
  const std::string big_prefix = [&] {
    Rng r(7);
    std::string t;
    while (t.size() < (std::size_t{1} << 20) - 64) t += valid_text(r, 1);
    return t;
  }();
  std::size_t threw = 0;
  for (int c = 0; c < 600; ++c) {
    // Every 50th case straddles the 1 MiB mark, a read-block boundary, and
    // mutates only near it, so junk lands in the carried partial line.
    const bool straddle = c % 50 == 0;
    std::string text = (straddle ? big_prefix : "") + valid_text(rng, 1 + rng.below(30));
    const std::size_t lo = straddle ? big_prefix.size() - 32 : 0;
    for (std::size_t m = 1 + rng.below(3); m > 0; --m) mutate(rng, text, lo);
    write_text("paralagg_io_fuzz.el", text);

    const Reference want = reference_parse(text);
    const std::string err = read_error(path);
    if (want.bad_line != 0) {
      ++threw;
      const std::string prefix = path + ":" + std::to_string(want.bad_line) + ": ";
      EXPECT_EQ(err.rfind(prefix, 0), 0u) << "case " << c << ": '" << err << "'";
    } else {
      ASSERT_EQ(err, "") << "case " << c;
      const Graph g = read_edge_list(path);
      EXPECT_EQ(g.edges, want.edges) << "case " << c;
      EXPECT_EQ(g.num_nodes, node_count(want.edges)) << "case " << c;
    }
  }
  // Both outcomes must be exercised for the comparison to mean anything.
  EXPECT_GT(threw, 100u);
  EXPECT_LT(threw, 500u);
  std::remove(path.c_str());
}

TEST(Zoo, Table2HasEightPaperRows) {
  const auto& zoo = table2_zoo();
  ASSERT_EQ(zoo.size(), 8u);
  EXPECT_EQ(zoo[0].paper_graph, "flickr");
  EXPECT_EQ(zoo[7].paper_graph, "stokes");
  // Paper edge counts must ascend roughly as in Table II (flickr smallest).
  EXPECT_LT(zoo[0].paper_edges, zoo[6].paper_edges);
}

TEST(Zoo, StandInsGenerateAndKeepRelativeOrder) {
  const auto& zoo = table2_zoo();
  std::vector<std::size_t> sizes;
  for (const auto& entry : zoo) {
    const Graph g = entry.make();
    EXPECT_GT(g.num_edges(), 10'000u) << entry.name;
    EXPECT_EQ(g.name, entry.name);
    sizes.push_back(g.num_edges());
  }
  // Largest stand-in is the arabic one, as in the paper.
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), sizes[6]);
}

TEST(Zoo, SocialStandInsAreSkewedMeshesAreNot) {
  const auto& zoo = table2_zoo();
  const Graph flickr = zoo[0].make();   // social
  const Graph mesh = zoo[4].make();     // ml-geer (grid)
  EXPECT_GT(flickr.degree_skew(), 5.0);
  EXPECT_LT(mesh.degree_skew(), 2.0);
}

TEST(Zoo, TwitterLikeIsTheMostSkewed) {
  const Graph tw = make_twitter_like(12, 8);
  const Graph lj = make_livejournal_like();
  EXPECT_GT(tw.degree_skew(), lj.degree_skew());
}

}  // namespace
}  // namespace paralagg::graph
