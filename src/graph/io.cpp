#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace paralagg::graph {

namespace {

// Read size per fread: large enough that the per-call cost vanishes against
// the parse, small enough to stay cache-resident and never show in peak RSS
// next to the graph it fills.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

RowScanner::RowScanner(std::string path)
    : path_(std::move(path)), file_(std::fopen(path_.c_str(), "rb")), buf_(kBlockBytes) {
  if (!file_) throw std::runtime_error(path_ + ": cannot open");
}

void RowScanner::refill() {
  // Move the partial line to the front; a line that fills the whole buffer
  // doubles it, so only an over-long line costs more than one block.
  const std::size_t carry = end_ - pos_;
  std::memmove(buf_.data(), buf_.data() + pos_, carry);
  pos_ = 0;
  end_ = carry;
  if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
  const std::size_t got = std::fread(buf_.data() + end_, 1, buf_.size() - end_, file_.get());
  if (got == 0) {
    if (std::ferror(file_.get()) != 0) throw std::runtime_error(path_ + ": read error");
    eof_ = true;
  }
  end_ += got;
}

bool RowScanner::next() {
  for (;;) {
    const char* base = buf_.data();
    const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
    if (nl == nullptr && !eof_) {
      refill();  // may move and grow buf_: rescan
      continue;
    }
    if (nl == nullptr && pos_ == end_) return false;
    const std::size_t stop =
        nl != nullptr ? static_cast<std::size_t>(static_cast<const char*>(nl) - base) : end_;
    // [pos_, stop) is one whole line; the last one may lack its '\n'.
    ++line_;
    tokens_.clear();
    const char* p = base + pos_;
    const char* const e = base + stop;
    for (;;) {
      while (p != e && is_blank(*p)) ++p;
      if (p == e || *p == '#' || *p == '%') break;
      const char* const t = p;
      while (p != e && !is_blank(*p)) ++p;
      tokens_.emplace_back(t, static_cast<std::size_t>(p - t));
    }
    pos_ = stop == end_ ? stop : stop + 1;
    if (!tokens_.empty()) return true;
  }
}

value_t RowScanner::value(std::size_t i) const {
  const std::string_view tok = tokens_[i];
  value_t v = 0;
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    fail("value '" + std::string(tok) + "' is out of range");
  }
  if (ec != std::errc{} || ptr != last) {
    fail("'" + std::string(tok) + "' is not an unsigned decimal integer");
  }
  return v;
}

void RowScanner::fail(const std::string& reason) const {
  throw std::runtime_error(path_ + ":" + std::to_string(line_) + ": " + reason);
}

void write_edge_list(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << "# " << g.name << " nodes=" << g.num_nodes << " edges=" << g.edges.size() << "\n";
  for (const auto& e : g.edges) {
    out << e.src << " " << e.dst << " " << e.weight << "\n";
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

Graph read_edge_list(const std::string& path, const std::string& name) {
  RowScanner rows(path);
  Graph g;
  g.name = name;
  while (rows.next()) {
    const std::size_t n = rows.tokens().size();
    if (n != 2 && n != 3) {
      rows.fail("malformed edge: want 'src dst [weight]', got " + std::to_string(n) +
                " tokens");
    }
    const Edge e{rows.value(0), rows.value(1), n == 3 ? rows.value(2) : value_t{1}};
    const value_t hi = std::max(e.src, e.dst);
    if (hi == std::numeric_limits<value_t>::max()) {
      rows.fail("node id " + std::to_string(hi) + " is out of range (node count would wrap)");
    }
    g.edges.push_back(e);
    if (hi + 1 > g.num_nodes) g.num_nodes = hi + 1;
  }
  return g;
}

}  // namespace paralagg::graph
