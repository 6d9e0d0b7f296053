#pragma once

// Text input: the edge-list file format and the row scanner every text
// input shares (edge lists, Datalog facts, serving update batches).
//
// Grammar, one row per line:
//   - tokens are separated by spaces or tabs; a '\r' counts as whitespace,
//     so CRLF files read like LF files;
//   - a token starting with '#' or '%' comments out the rest of the line,
//     which covers SNAP ('#') and Matrix Market ('%') headers as well as
//     inline comments;
//   - a line with no tokens is skipped.
// Every violation a reader finds throws
// std::runtime_error("<path>:<line>: <reason>").
//
// Edge lists are rows of `src dst [weight]`: exactly two or three whole
// unsigned decimal values, weight 1 when omitted — the format SNAP and
// SuiteSparse exports use, so a user with the paper's real datasets can
// feed them straight in.

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"

namespace paralagg::graph {

/// Streams the rows of a text file in fixed-size blocks, carrying a partial
/// line across block boundaries, and splits each row into tokens in place.
/// Memory is one block, or the longest line if that is longer; no row is
/// ever copied into its own string.
class RowScanner {
 public:
  /// Opens `path`; throws std::runtime_error("<path>: cannot open") if it
  /// cannot be read.
  explicit RowScanner(std::string path);

  /// Advances to the next line that has at least one token; false at the
  /// end of the file.
  bool next();

  /// The current row's tokens.  The views stay valid until next().
  [[nodiscard]] std::span<const std::string_view> tokens() const { return tokens_; }

  /// Token `i` (< tokens().size()) of the current row as a whole unsigned
  /// decimal value_t: no sign, no fraction, no trailing characters, in
  /// range.  Anything else throws through fail().
  [[nodiscard]] value_t value(std::size_t i) const;

  /// Throws std::runtime_error("<path>:<line>: <reason>") for the current row.
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  void refill();

  std::string path_;
  std::unique_ptr<std::FILE, Closer> file_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // start of the unscanned bytes in buf_
  std::size_t end_ = 0;  // end of the bytes read into buf_
  bool eof_ = false;
  std::size_t line_ = 0;  // 1-based number of the current row's line
  std::vector<std::string_view> tokens_;
};

/// Write `g` as a text edge list (with a header comment).
void write_edge_list(const Graph& g, const std::string& path);

/// Parse a text edge list; `name` labels the result.  Node count is
/// 1 + max id seen, so the id 2^64-1 is rejected.  Throws
/// std::runtime_error on unreadable files or malformed lines.
Graph read_edge_list(const std::string& path, const std::string& name = "file");

}  // namespace paralagg::graph
