#pragma once

// The row codec: every row exchange's wire format.
//
// The paper's claim is about communication volume, so the bytes a rank
// ships are the quantity that matters.  Rows are fixed-arity runs of
// 64-bit words, and sorted runs are highly redundant: consecutive rows
// share leading columns and differ by small amounts after them.  Every
// row exchange — router flushes, the async engine's stage, probe and
// epoch frames, the fact-load scatter, the intra-bucket probe exchange
// and the gather — writes its rows through this one codec.
//
// A frame is a sequence of groups:
//
//   [ varint route | varint count | count rows ]*
//
// Every value is unsigned LEB128 (7 bits per byte, low bits first, high
// bit set on every byte but the last; at most 10 bytes).  Within a group,
// the first row is written plain.  Each later row writes column c as the
// wrapping difference from the previous row's column c while columns
// 0..c-1 equal the previous row's, and plain from the first column that
// differs on.  So a run sorted lexicographically (sort_rows) or by key
// codes its leading columns as small deltas — an equal column is one zero
// byte — while an unsorted run still round-trips exactly: correctness
// never depends on row order, order only makes the frame smaller.
//
// Route ids index the decoder's route table (the relations whose arities
// give each group's row width); single-relation exchanges use route 0.
// Frames carry no checksum of their own: on the faultable mailbox path the
// reliable channel's envelope (vmpi/reliable.hpp) is the one integrity
// check.  The decoder still bounds-checks every varint, route and row
// count, so a malformed frame throws vmpi::FrameDecodeError and never
// reads past the buffer.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/serialize.hpp"

namespace paralagg::core {

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Sort a flat run of rows (`arity` values each) into lexicographic row
/// order, in place.  Identical rows are indistinguishable, so the result
/// does not depend on the input order; rows with equal leading columns
/// end up adjacent, which is what a fold over equal keys needs.  An
/// already sorted run costs one linear check; the sort itself is a radix
/// sort over the bits that vary across the run, so it makes no
/// comparisons and is linear in the rows.
void sort_rows(std::vector<value_t>& rows, std::size_t arity);

/// Append one LEB128 value to `frame` (a frame prefix such as the SSP
/// epoch word).
void put_varint(vmpi::Bytes& frame, std::uint64_t v);

/// Append one `[ route | count | rows ]` group to `frame` and return its
/// row count.  `rows` is flat, `arity` values per row.
std::size_t put_row_group(vmpi::Bytes& frame, std::size_t route, std::span<const value_t> rows,
                          std::size_t arity);

/// Bounds-checked sequential reader over one frame.
class RowReader {
 public:
  explicit RowReader(std::span<const std::byte> frame)
      : p_(frame.data()), end_(frame.data() + frame.size()) {}

  [[nodiscard]] bool done() const { return p_ == end_; }
  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  /// The bytes not yet read.
  [[nodiscard]] std::span<const std::byte> rest() const { return {p_, end_}; }

  /// One LEB128 value.  Throws on a truncated varint, one longer than
  /// kMaxVarintBytes, or one whose value exceeds 64 bits.
  std::uint64_t varint() {
    // Sorted runs code mostly one-byte values: take those inline.
    if (p_ != end_ && static_cast<std::uint8_t>(*p_) < 0x80) {
      return static_cast<std::uint8_t>(*p_++);
    }
    return varint_long();
  }

  /// Throw unless `count` rows of `arity` values could fit in the rest of
  /// the frame (every value takes at least one byte), so a corrupt count
  /// never drives an allocation.
  void check_count(std::uint64_t count, std::size_t arity) const;

  /// Decode one row of a group into `out`: `prev` is the group's previous
  /// row (it may be `out` itself, decoding in place), or null for the
  /// group's first row.
  void row(value_t* out, const value_t* prev, std::size_t arity);

  /// Decode `count` rows of `arity` values, appending them to `out`
  /// (check_count first).
  void rows(std::uint64_t count, std::size_t arity, std::vector<value_t>& out);

 private:
  std::uint64_t varint_long();

  const std::byte* p_;
  const std::byte* end_;
};

/// Walk one frame and call `on_rows(route, rows)` per group.  `routes` is
/// the route table: `routes[id]->arity()` is group `id`'s row width.  Each
/// group decodes into `scratch` (cleared first, capacity kept), so `rows`
/// is valid only until `on_rows` returns.
template <typename Routes, typename F>
void decode_row_frame(std::span<const std::byte> frame, const Routes& routes,
                      std::vector<value_t>& scratch, F&& on_rows) {
  RowReader r(frame);
  while (!r.done()) {
    const std::uint64_t id = r.varint();
    if (id >= std::size(routes)) {
      throw vmpi::FrameDecodeError("row codec: frame names an unregistered route");
    }
    const std::size_t arity = routes[static_cast<std::size_t>(id)]->arity();
    scratch.clear();
    r.rows(r.varint(), arity, scratch);
    on_rows(static_cast<std::size_t>(id), std::span<const value_t>(scratch));
  }
}

/// Streams the rows of a single-relation frame (route 0 groups) one at a
/// time, decoding each in place over the last: a merge of several
/// received runs needs no decoded copy of them.
class FrameRowCursor {
 public:
  FrameRowCursor(std::span<const std::byte> frame, std::size_t arity);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::span<const value_t> row() const { return row_; }
  void next();

 private:
  RowReader r_;
  std::vector<value_t> row_;
  std::uint64_t left_ = 0;  // rows still to decode in the current group
  bool first_ = true;       // the next row opens its group
  bool valid_ = true;
};

/// The row count a frame's first group header declares, capped at what
/// the frame could hold (each value takes at least a byte); 0 for an
/// empty or malformed header.  A sizing hint for buffers that gather
/// single-group frames — the decode itself still checks everything.
std::size_t frame_rows_hint(std::span<const std::byte> frame, std::size_t arity);

/// Append every row of a single-relation frame (route 0 only) to `out`.
void append_frame_rows(std::span<const std::byte> frame, std::size_t arity,
                       std::vector<value_t>& out);

/// Every row of a set of single-relation frames, flat in frame order, in
/// one buffer sized from their group headers.
std::vector<value_t> decode_frames(const std::vector<vmpi::Bytes>& frames, std::size_t arity);

}  // namespace paralagg::core
