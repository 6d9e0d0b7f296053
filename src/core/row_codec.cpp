#include "core/row_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace paralagg::core {

namespace {

std::byte* put_varint_raw(std::byte* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

/// Runs this short sort by insertion; longer ones by radix.
constexpr std::size_t kInsertionMax = 32;

bool row_less(const value_t* a, const value_t* b, std::size_t arity) {
  return std::lexicographical_compare(a, a + arity, b, b + arity);
}

void insertion_sort(std::vector<value_t>& rows, std::size_t arity) {
  std::vector<value_t> hold(arity);
  for (std::size_t r = arity; r < rows.size(); r += arity) {
    std::size_t at = r;
    while (at > 0 && row_less(rows.data() + r, rows.data() + at - arity, arity)) at -= arity;
    if (at == r) continue;
    const auto it = [&](std::size_t i) { return rows.begin() + static_cast<std::ptrdiff_t>(i); };
    std::copy(it(r), it(r + arity), hold.begin());
    std::copy_backward(it(at), it(r), it(r + arity));
    std::copy(hold.begin(), hold.end(), it(at));
  }
}

/// LSD radix sort of `n` items by `key(i)`, bits [0, bits), 8 bits a pass;
/// a pass whose digit is the same for every item is skipped.  `move(from,
/// i, to, j)` moves item i of `from` to slot j of `to`; the buffers
/// ping-pong, and the result is back in `a` on return.
template <typename Buf, typename Key, typename Move>
void radix_passes(Buf& a, Buf& b, std::size_t n, unsigned bits, Key key, Move move) {
  const unsigned passes = (bits + 7) / 8;
  std::vector<std::array<std::size_t, 256>> counts(passes);
  for (auto& h : counts) h.fill(0);
  for (std::size_t i = 0; i < n; ++i) {
    const value_t k = key(a, i);
    for (unsigned p = 0; p < passes; ++p) ++counts[p][(k >> (8 * p)) & 0xff];
  }
  Buf* src = &a;
  Buf* dst = &b;
  for (unsigned p = 0; p < passes; ++p) {
    if (std::find(counts[p].begin(), counts[p].end(), n) != counts[p].end()) continue;
    std::array<std::size_t, 256> at{};
    std::size_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      at[d] = sum;
      sum += counts[p][d];
    }
    for (std::size_t i = 0; i < n; ++i) move(*src, i, *dst, at[(key(*src, i) >> (8 * p)) & 0xff]++);
    std::swap(src, dst);
  }
  if (src != &a) std::swap(a, b);
}

/// Sort rows whose varying bits (the bits of each column that differ from
/// row 0's) total at most 64: each row packs into one word, column 0
/// most significant, so word order is row order.  The words sort and the
/// rows unpack from them — 8 bytes move per pass instead of a whole row.
void sort_packed(std::vector<value_t>& rows, std::size_t arity,
                 const std::vector<value_t>& varying) {
  struct Field {
    unsigned lo = 0, width = 0, offset = 0;
    value_t mask = 0;
  };
  std::vector<Field> fields(arity);
  unsigned bits = 0;
  for (std::size_t c = arity; c-- > 0;) {
    Field& f = fields[c];
    if (varying[c] == 0) continue;  // constant column: row 0 restores it
    f.lo = static_cast<unsigned>(std::countr_zero(varying[c]));
    f.width = 64 - static_cast<unsigned>(std::countl_zero(varying[c])) - f.lo;
    f.mask = f.width == 64 ? ~value_t{0} : (value_t{1} << f.width) - 1;
    f.offset = bits;
    bits += f.width;
  }
  const std::size_t n = rows.size() / arity;
  std::vector<value_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    value_t k = 0;
    for (std::size_t c = 0; c < arity; ++c) {
      const Field& f = fields[c];
      if (f.width != 0) k |= ((rows[i * arity + c] >> f.lo) & f.mask) << f.offset;
    }
    keys[i] = k;
  }
  std::vector<value_t> tmp(n);
  radix_passes(
      keys, tmp, n, bits, [](const std::vector<value_t>& v, std::size_t i) { return v[i]; },
      [](const std::vector<value_t>& from, std::size_t i, std::vector<value_t>& to,
         std::size_t j) { to[j] = from[i]; });
  const std::vector<value_t> row0(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(arity));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < arity; ++c) {
      const Field& f = fields[c];
      rows[i * arity + c] =
          f.width == 0 ? row0[c]
                       : (row0[c] & ~(f.mask << f.lo)) | (((keys[i] >> f.offset) & f.mask) << f.lo);
    }
  }
}

/// Rows too wide to pack: a stable radix sort column by column, least
/// significant column first, moving whole rows.
void sort_wide(std::vector<value_t>& rows, std::size_t arity, const std::vector<value_t>& varying) {
  const std::size_t n = rows.size() / arity;
  std::vector<value_t> tmp(rows.size());
  for (std::size_t c = arity; c-- > 0;) {
    if (varying[c] == 0) continue;
    const auto lo = static_cast<unsigned>(std::countr_zero(varying[c]));
    const unsigned bits = 64 - static_cast<unsigned>(std::countl_zero(varying[c])) - lo;
    radix_passes(
        rows, tmp, n, bits,
        [&](const std::vector<value_t>& v, std::size_t i) { return v[i * arity + c] >> lo; },
        [&](const std::vector<value_t>& from, std::size_t i, std::vector<value_t>& to,
            std::size_t j) {
          std::copy_n(from.begin() + static_cast<std::ptrdiff_t>(i * arity), arity,
                      to.begin() + static_cast<std::ptrdiff_t>(j * arity));
        });
  }
}

}  // namespace

void sort_rows(std::vector<value_t>& rows, std::size_t arity) {
  assert(arity > 0 && rows.size() % arity == 0 && "ragged run");
  bool sorted = true;
  for (std::size_t r = arity; r < rows.size() && sorted; r += arity) {
    sorted = !row_less(rows.data() + r, rows.data() + r - arity, arity);
  }
  if (sorted) return;
  if (rows.size() / arity <= kInsertionMax) {
    insertion_sort(rows, arity);
    return;
  }
  std::vector<value_t> varying(arity, 0);  // bits that differ from row 0's
  unsigned bits = 0;
  for (std::size_t r = 0; r < rows.size(); r += arity) {
    for (std::size_t c = 0; c < arity; ++c) varying[c] |= rows[r + c] ^ rows[c];
  }
  for (const value_t v : varying) {
    if (v != 0) bits += 64 - static_cast<unsigned>(std::countl_zero(v) + std::countr_zero(v));
  }
  if (bits <= 64) {
    sort_packed(rows, arity, varying);
  } else {
    sort_wide(rows, arity, varying);
  }
}

void put_varint(vmpi::Bytes& frame, std::uint64_t v) {
  const std::size_t used = frame.size();
  frame.resize(used + kMaxVarintBytes);
  frame.resize(static_cast<std::size_t>(put_varint_raw(frame.data() + used, v) - frame.data()));
}

std::size_t put_row_group(vmpi::Bytes& frame, std::size_t route, std::span<const value_t> rows,
                          std::size_t arity) {
  assert(arity > 0 && rows.size() % arity == 0 && "ragged group");
  const std::size_t count = rows.size() / arity;
  std::size_t used = frame.size();
  // Room for `need` more bytes, grown geometrically from the *encoded*
  // size so the buffer tracks the frame, not the raw rows' worst case.
  const auto room = [&](std::size_t need) {
    if (frame.size() - used < need) frame.resize(std::max(2 * frame.size(), used + need));
    return frame.data() + used;
  };
  std::byte* p = room(2 * kMaxVarintBytes);
  p = put_varint_raw(p, route);
  p = put_varint_raw(p, count);
  used = static_cast<std::size_t>(p - frame.data());
  const value_t* prev = nullptr;
  for (std::size_t r = 0; r < count; ++r) {
    const value_t* row = rows.data() + r * arity;
    p = room(arity * kMaxVarintBytes);
    std::size_t c = 0;
    if (prev != nullptr) {
      // Delta-code the shared prefix and the first differing column.
      for (; c < arity; ++c) {
        p = put_varint_raw(p, row[c] - prev[c]);
        if (row[c] != prev[c]) {
          ++c;
          break;
        }
      }
    }
    for (; c < arity; ++c) p = put_varint_raw(p, row[c]);
    used = static_cast<std::size_t>(p - frame.data());
    prev = row;
  }
  frame.resize(used);
  return count;
}

namespace {

[[noreturn]] void throw_overlong() {
  throw vmpi::FrameDecodeError("row codec: varint longer than 10 bytes");
}

[[noreturn]] void throw_overflow() {
  throw vmpi::FrameDecodeError("row codec: varint overflows 64 bits");
}

/// One LEB128 value at `p`, which must have kMaxVarintBytes readable bytes
/// (so no end check per byte).
std::uint64_t read_varint_unchecked(const std::byte*& p) {
  std::uint64_t b = static_cast<std::uint8_t>(*p++);
  if (b < 0x80) return b;
  std::uint64_t v = b & 0x7f;
  for (unsigned i = 1; i < kMaxVarintBytes; ++i) {
    b = static_cast<std::uint8_t>(*p++);
    // The tenth byte holds bit 63 alone.
    if (i == kMaxVarintBytes - 1 && b > 1) throw_overflow();
    v |= (b & 0x7f) << (7 * i);
    if (b < 0x80) return v;
  }
  throw_overlong();
}

}  // namespace

std::uint64_t RowReader::varint_long() {
  if (remaining() >= kMaxVarintBytes) return read_varint_unchecked(p_);
  // Near the end of the frame: check every byte.
  std::uint64_t v = 0;
  for (std::size_t i = 0;; ++i) {
    if (p_ == end_) throw vmpi::FrameDecodeError("row codec: frame truncated inside a varint");
    const auto b = static_cast<std::uint64_t>(*p_++);
    if (i == kMaxVarintBytes - 1 && b > 1) throw_overflow();
    v |= (b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
}

void RowReader::check_count(std::uint64_t count, std::size_t arity) const {
  assert(arity > 0);
  // Division form: a corrupt count must not overflow the multiply.
  if (count > remaining() / arity) {
    throw vmpi::FrameDecodeError("row codec: frame row count overruns payload");
  }
}

void RowReader::row(value_t* out, const value_t* prev, std::size_t arity) {
  const auto decode = [&](auto next) {
    std::size_t c = 0;
    if (prev != nullptr) {
      // Delta columns while the prefix matches, through the first that
      // differs; plain after.
      for (; c < arity; ++c) {
        const std::uint64_t d = next();
        out[c] = prev[c] + d;
        if (d != 0) {
          ++c;
          break;
        }
      }
    }
    for (; c < arity; ++c) out[c] = next();
  };
  // Far from the end, a whole row decodes without per-byte end checks.
  if (remaining() >= arity * kMaxVarintBytes) {
    decode([this] { return read_varint_unchecked(p_); });
  } else {
    decode([this] { return varint(); });
  }
}

void RowReader::rows(std::uint64_t count, std::size_t arity, std::vector<value_t>& out) {
  check_count(count, arity);
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(count) * arity);
  for (std::size_t r = 0; r < count; ++r) {
    value_t* at = out.data() + base + r * arity;
    row(at, r > 0 ? at - arity : nullptr, arity);
  }
}

FrameRowCursor::FrameRowCursor(std::span<const std::byte> frame, std::size_t arity)
    : r_(frame), row_(arity) {
  next();
}

void FrameRowCursor::next() {
  while (left_ == 0) {
    if (r_.done()) {
      valid_ = false;
      return;
    }
    if (r_.varint() != 0) {
      throw vmpi::FrameDecodeError("row codec: frame names an unregistered route");
    }
    left_ = r_.varint();
    r_.check_count(left_, row_.size());
    first_ = true;
  }
  r_.row(row_.data(), first_ ? nullptr : row_.data(), row_.size());
  first_ = false;
  --left_;
}

std::size_t frame_rows_hint(std::span<const std::byte> frame, std::size_t arity) {
  RowReader r(frame);
  try {
    if (r.done()) return 0;
    (void)r.varint();
    const std::uint64_t count = r.varint();
    return static_cast<std::size_t>(std::min<std::uint64_t>(count, r.remaining() / arity));
  } catch (const vmpi::FrameDecodeError&) {
    return 0;
  }
}

void append_frame_rows(std::span<const std::byte> frame, std::size_t arity,
                       std::vector<value_t>& out) {
  RowReader r(frame);
  while (!r.done()) {
    if (r.varint() != 0) {
      throw vmpi::FrameDecodeError("row codec: frame names an unregistered route");
    }
    r.rows(r.varint(), arity, out);
  }
}

std::vector<value_t> decode_frames(const std::vector<vmpi::Bytes>& frames, std::size_t arity) {
  std::size_t total = 0;
  for (const auto& frame : frames) total += frame_rows_hint(frame, arity) * arity;
  std::vector<value_t> rows;
  rows.reserve(total);
  for (const auto& frame : frames) append_frame_rows(frame, arity, rows);
  return rows;
}

}  // namespace paralagg::core
