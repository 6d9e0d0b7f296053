// Seeded fuzzing of the frame decoders that face the wire.
//
// ReliableChannel::on_data is the single envelope decoder: every faultable
// frame passes through it, so for any byte string it is handed the only
// allowed outcomes are the exact payload that was sent, or a typed
// rejection — nullopt (a NACKed corrupt frame or a discarded duplicate)
// when healing, FrameDecodeError when detect-only.  decode_row_frame is
// the structural decoder of the row codec every row exchange uses
// (core/row_codec.hpp).  Random frames from the real encoder
// (put_row_group) must decode back to the exact rows and match a reference
// encoder written from the format's specification byte for byte; garbled
// payloads, targeted malformed shapes, and frames read under another
// kind's route table must either decode inside the buffer or throw
// FrameDecodeError, never read out of bounds (decoding runs over
// exact-size heap copies, and the asan-ubsan preset runs this binary
// too).  serving::decode_lookup_replies, the receive side of
// ServingEngine::lookup_batch, gets the same treatment, and must also
// reject well-formed replies carrying rows for keys nobody requested.
// Every schedule is a pure function of the seed, so a failure replays
// exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "core/program.hpp"
#include "core/row_codec.hpp"
#include "serving/serving_engine.hpp"
#include "vmpi/reliable.hpp"
#include "vmpi/runtime.hpp"

namespace paralagg {
namespace {

using core::value_t;
using vmpi::Bytes;
using vmpi::ReliableChannel;

constexpr int kIterations = 4000;

Bytes random_bytes(std::mt19937_64& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng());
  return b;
}

/// Damage an intact wire frame one of several ways; the result always
/// differs from `wire`.
Bytes garble(std::mt19937_64& rng, const Bytes& wire) {
  Bytes out = wire;
  switch (rng() % 5) {
    case 0: {  // one flipped byte (the injected-corruption shape)
      out[rng() % out.size()] ^= static_cast<std::byte>(1 + rng() % 255);
      break;
    }
    case 1: {  // several flipped bytes
      const std::size_t flips = 2 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        out[rng() % out.size()] ^= static_cast<std::byte>(1 + rng() % 255);
      }
      if (out == wire) out[0] ^= std::byte{0x01};
      break;
    }
    case 2:  // truncation
      out.resize(rng() % wire.size());
      break;
    case 3: {  // trailing junk
      const Bytes junk = random_bytes(rng, 1 + rng() % 64);
      out.insert(out.end(), junk.begin(), junk.end());
      break;
    }
    default:  // a garbage buffer of random length
      do {
        out = random_bytes(rng, rng() % 160);
      } while (out == wire);
      break;
  }
  return out;
}

void fuzz_envelope(const vmpi::RetryPolicy& policy, std::uint64_t seed) {
  vmpi::CommStats tx_stats;
  vmpi::CommStats rx_stats;
  ReliableChannel tx(0, 2, policy, &tx_stats);
  ReliableChannel rx(1, 2, policy, &rx_stats);
  std::mt19937_64 rng(seed);
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dups = 0;

  for (int i = 0; i < kIterations; ++i) {
    const Bytes payload = random_bytes(rng, rng() % 200);
    const Bytes wire = tx.send_data(1, 7, payload, 0.0);
    ASSERT_EQ(wire.size(), payload.size() + ReliableChannel::kEnvelopeBytes);

    const bool intact = rng() % 3 == 0;
    const Bytes frame = intact ? wire : garble(rng, wire);
    std::optional<std::span<const std::byte>> got;
    bool threw = false;
    try {
      got = rx.on_data(0, frame, 0.0);
    } catch (const vmpi::FrameDecodeError&) {
      threw = true;
    }

    if (intact) {
      ASSERT_FALSE(threw) << "iteration " << i;
      ASSERT_TRUE(got.has_value()) << "iteration " << i;
      ASSERT_EQ(Bytes(got->begin(), got->end()), payload) << "iteration " << i;
      ++delivered;
      // Replay the intact frame: the sequence window must discard it.
      ASSERT_FALSE(rx.on_data(0, wire, 0.0).has_value()) << "iteration " << i;
      ++dups;
      continue;
    }
    // Damaged: a typed rejection, the flavour fixed by the retry mode.
    ASSERT_FALSE(got.has_value()) << "iteration " << i << ": damaged frame delivered";
    ASSERT_EQ(threw, !policy.enabled()) << "iteration " << i;
    ++rejected;
    // The undamaged original still delivers exactly once (healing would
    // resend it; detect-only never would, but the decoder must not care).
    const auto retry = rx.on_data(0, wire, 0.0);
    ASSERT_TRUE(retry.has_value()) << "iteration " << i;
    ASSERT_EQ(Bytes(retry->begin(), retry->end()), payload) << "iteration " << i;
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(rx_stats.reliable_dups_discarded, dups);
  EXPECT_EQ(rx_stats.nacks_sent, policy.enabled() ? rejected : 0u);
}

TEST(FrameFuzz, EnvelopeDecoderHealingDeliversExactlyOrNacks) {
  fuzz_envelope(vmpi::RetryPolicy{}, 0xF00D);
}

TEST(FrameFuzz, EnvelopeDecoderDetectOnlyDeliversExactlyOrThrows) {
  vmpi::RetryPolicy detect;
  detect.max_attempts = 0;
  fuzz_envelope(detect, 0xBEEF);
}

/// The row codec, written straight from its specification
/// (core/row_codec.hpp): the differential reference for put_row_group.
void reference_varint(Bytes& out, std::uint64_t v) {
  do {
    std::uint8_t byte = v & 0x7f;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    out.push_back(static_cast<std::byte>(byte));
  } while (v != 0);
}

void reference_group(Bytes& out, std::size_t route, const std::vector<value_t>& rows,
                     std::size_t arity) {
  reference_varint(out, route);
  reference_varint(out, rows.size() / arity);
  std::vector<value_t> prev(arity, 0);
  for (std::size_t r = 0; r < rows.size(); r += arity) {
    for (std::size_t c = 0; c < arity; ++c) {
      // Delta while every earlier column equals the previous row's; the
      // first row is written plain.
      bool prefix_equal = r > 0;
      for (std::size_t k = 0; k < c && prefix_equal; ++k) {
        prefix_equal = rows[r + k] == prev[k];
      }
      reference_varint(out, prefix_equal ? rows[r + c] - prev[c] : rows[r + c]);
    }
    std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(r), arity, prev.begin());
  }
}

/// Random column values biased toward the codec's edge cases: 0,
/// UINT64_MAX, small numbers, and repeats of the previous row's column.
value_t edge_value(std::mt19937_64& rng, value_t prev) {
  switch (rng() % 6) {
    case 0: return 0;
    case 1: return UINT64_MAX;
    case 2: return rng() % 16;
    case 3: return prev;
    case 4: return prev + 1 + rng() % 4;
    default: return rng();
  }
}

/// Random rows: arbitrary order, duplicates included, sometimes empty.
std::vector<value_t> random_rows(std::mt19937_64& rng, std::size_t arity) {
  std::vector<value_t> rows((rng() % 7) * arity);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = edge_value(rng, i >= arity ? rows[i - arity] : 0);
  }
  if (rows.size() >= 2 * arity && rng() % 3 == 0) {  // an exact duplicate row
    std::copy_n(rows.begin(), arity, rows.end() - static_cast<std::ptrdiff_t>(arity));
  }
  return rows;
}

struct Group {
  std::size_t route;
  std::vector<value_t> rows;
};

/// One well-formed frame of up to four random groups over `routes`, built
/// by the real encoder; each group's rows sorted or not at random.
Bytes route_frame(std::mt19937_64& rng, std::span<core::Relation* const> routes,
                  std::vector<Group>& groups) {
  groups.clear();
  Bytes frame;
  Bytes reference;
  const std::size_t count = rng() % 5;
  for (std::size_t g = 0; g < count; ++g) {
    const std::size_t id = rng() % routes.size();
    const std::size_t arity = routes[id]->arity();
    std::vector<value_t> rows = random_rows(rng, arity);
    if (rng() % 2 == 0) core::sort_rows(rows, arity);
    EXPECT_EQ(core::put_row_group(frame, id, rows, arity), rows.size() / arity);
    reference_group(reference, id, rows, arity);
    groups.push_back({id, std::move(rows)});
  }
  EXPECT_EQ(frame, reference) << "encoder disagrees with the specification";
  return frame;
}

/// Decode `frame` from an exact-size heap copy, so a read one byte past
/// the end is an out-of-bounds access the asan-ubsan preset reports.
/// Returns false when the decoder threw FrameDecodeError.
bool decode_exact(const Bytes& frame, std::span<core::Relation* const> table,
                  std::vector<Group>* out = nullptr) {
  const auto copy = std::make_unique<std::byte[]>(frame.size());
  std::copy(frame.begin(), frame.end(), copy.get());
  std::vector<value_t> scratch;
  try {
    core::decode_row_frame(std::span<const std::byte>(copy.get(), frame.size()), table, scratch,
                           [&](std::size_t id, std::span<const value_t> rows) {
                             EXPECT_LT(id, table.size());
                             EXPECT_EQ(rows.size() % table[id]->arity(), 0u);
                             if (out != nullptr) out->push_back({id, {rows.begin(), rows.end()}});
                           });
  } catch (const vmpi::FrameDecodeError&) {
    return false;
  }
  return true;
}

/// Round-trip `kIterations` random frames under `routes` — exact rows back,
/// bytes identical to the reference encoder — then check that garbled
/// copies, and clean frames read under the `wrong` route table (a frame of
/// one kind read as another), decode inside the buffer or throw typed.
void fuzz_route_codec(std::span<core::Relation* const> routes,
                      std::span<core::Relation* const> wrong, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uint64_t threw = 0;
  std::vector<Group> sent;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes clean = route_frame(rng, routes, sent);
    std::vector<Group> got;
    ASSERT_TRUE(decode_exact(clean, routes, &got)) << "iteration " << i;
    ASSERT_EQ(got.size(), sent.size()) << "iteration " << i;
    for (std::size_t g = 0; g < got.size(); ++g) {
      ASSERT_EQ(got[g].route, sent[g].route) << "iteration " << i;
      ASSERT_EQ(got[g].rows, sent[g].rows) << "iteration " << i;
    }

    const Bytes bad = clean.empty() ? random_bytes(rng, rng() % 96) : garble(rng, clean);
    threw += decode_exact(bad, routes) ? 0 : 1;
    threw += decode_exact(clean, wrong) ? 0 : 1;
  }
  EXPECT_GT(threw, 0u);
}

/// A two-route table (arities 2 and 3) for the targeted malformed frames.
template <typename F>
void with_pair_triple(F&& f) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    std::vector<core::Relation*> routes{
        program.relation({.name = "pair", .arity = 2, .jcc = 1}),
        program.relation({.name = "triple", .arity = 3, .jcc = 1}),
    };
    f(std::span<core::Relation* const>(routes));
  });
}

TEST(FrameFuzz, RowCodecRoundTripsAndThrowsTypedOnGarbledFrames) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    // Arity 1 through 5.  The async engine's probe frames decode under a
    // route table of the loop joins' probe relations, whose arities differ
    // from the loop targets' (the stage-frame table); each table also
    // reads the other's frames.
    std::vector<core::Relation*> targets{
        program.relation({.name = "pair", .arity = 2, .jcc = 1}),
        program.relation({.name = "triple", .arity = 3, .jcc = 1}),
    };
    std::vector<core::Relation*> join_probes{
        program.relation({.name = "quad", .arity = 4, .jcc = 2}),
        program.relation({.name = "single", .arity = 1, .jcc = 1}),
        program.relation({.name = "quint", .arity = 5, .jcc = 1}),
    };
    fuzz_route_codec(targets, join_probes, 0xC0FFEE);
    fuzz_route_codec(join_probes, targets, 0xFEED);
  });
}

TEST(FrameFuzz, RowCodecRejectsEachMalformedShapeTyped) {
  with_pair_triple([](std::span<core::Relation* const> routes) {
    Bytes ok;
    core::put_row_group(ok, 1, std::vector<value_t>{1, 2, 3, 1, 2, UINT64_MAX}, 3);
    ASSERT_TRUE(decode_exact(ok, routes));

    // A varint cut off mid-value (continuation bit set on the last byte).
    Bytes truncated = ok;
    truncated.push_back(std::byte{0x80});
    EXPECT_FALSE(decode_exact(truncated, routes));
    // Every strict prefix of a frame with a multi-byte value is malformed
    // or a shorter valid frame; none may read past its end.
    for (std::size_t n = 0; n < ok.size(); ++n) {
      (void)decode_exact(Bytes(ok.begin(), ok.begin() + static_cast<std::ptrdiff_t>(n)), routes);
    }

    // Eleven continuation bytes: longer than any 64-bit LEB128.
    Bytes overlong(11, std::byte{0x80});
    overlong.push_back(std::byte{0x00});
    EXPECT_FALSE(decode_exact(overlong, routes));
    // Ten bytes whose last carries more than bit 63.
    Bytes overflow(9, std::byte{0xff});
    overflow.push_back(std::byte{0x02});
    EXPECT_FALSE(decode_exact(overflow, routes));

    // A route the table does not register.
    Bytes unregistered;
    core::put_row_group(unregistered, 2, std::vector<value_t>{7, 8}, 2);
    EXPECT_FALSE(decode_exact(unregistered, routes));

    // A count the payload cannot hold, small and huge.
    Bytes overrun;
    core::put_varint(overrun, 0);
    core::put_varint(overrun, 3);  // three pairs need at least 6 bytes
    core::put_varint(overrun, 1);
    core::put_varint(overrun, 2);
    EXPECT_FALSE(decode_exact(overrun, routes));
    Bytes huge;
    core::put_varint(huge, 1);
    core::put_varint(huge, UINT64_MAX);
    EXPECT_FALSE(decode_exact(huge, routes));

    // Empty groups are legal and carry no rows.
    Bytes empty;
    core::put_row_group(empty, 0, {}, 2);
    core::put_row_group(empty, 1, {}, 3);
    std::vector<Group> got;
    ASSERT_TRUE(decode_exact(empty, routes, &got));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_TRUE(got[0].rows.empty() && got[1].rows.empty());
  });
}

TEST(FrameFuzz, SortedRunsCodeSmallerThanRawWords) {
  // The point of the codec: a sorted edge-like run codes in a fraction of
  // its 8-byte words, and sort_rows yields lexicographic order.
  std::mt19937_64 rng(0x5EED);
  std::vector<value_t> rows;
  for (int i = 0; i < 4096; ++i) {
    rows.push_back(rng() % 2048);
    rows.push_back(rng() % 65536);
  }
  core::sort_rows(rows, 2);
  for (std::size_t r = 2; r < rows.size(); r += 2) {
    ASSERT_FALSE(std::lexicographical_compare(rows.begin() + static_cast<std::ptrdiff_t>(r),
                                              rows.begin() + static_cast<std::ptrdiff_t>(r + 2),
                                              rows.begin() + static_cast<std::ptrdiff_t>(r - 2),
                                              rows.begin() + static_cast<std::ptrdiff_t>(r)));
  }
  Bytes frame;
  core::put_row_group(frame, 0, rows, 2);
  EXPECT_LT(frame.size() * 3, rows.size() * sizeof(value_t));
  std::vector<value_t> back;
  core::append_frame_rows(frame, 2, back);
  EXPECT_EQ(back, rows);
}

/// Every row of `rows` (flat, arity 3) whose leading columns equal `key`.
std::vector<core::Tuple> rows_with_prefix(const std::vector<value_t>& rows,
                                          const core::Tuple& key) {
  std::vector<core::Tuple> out;
  for (std::size_t off = 0; off < rows.size(); off += 3) {
    const std::span<const value_t> row(rows.data() + off, 3);
    if (std::equal(key.view().begin(), key.view().end(), row.begin())) out.emplace_back(row);
  }
  return out;
}

/// Throws FrameDecodeError, or returns rows that each begin with the key
/// they were placed under, sorted per key.
void expect_placed_or_typed(const std::vector<Bytes>& replies,
                            std::span<const core::Tuple> uniq, std::uint64_t& threw) {
  try {
    const auto per = serving::decode_lookup_replies(replies, uniq, 3);
    ASSERT_EQ(per.size(), uniq.size());
    for (std::size_t k = 0; k < per.size(); ++k) {
      EXPECT_TRUE(std::is_sorted(per[k].begin(), per[k].end()));
      for (const auto& row : per[k]) {
        const auto key = uniq[k].view();
        EXPECT_TRUE(std::equal(key.begin(), key.end(), row.view().begin()));
      }
    }
  } catch (const vmpi::FrameDecodeError&) {
    ++threw;
  }
}

TEST(FrameFuzz, LookupReplyDecoderPlacesRowsOrThrowsTyped) {
  // Random stored rows (arity 3, small values, so keys collide) spread
  // over 1-4 replies the way sub-buckets spread them, requested keys of
  // every prefix length 0-3.  Clean replies decode to exactly each key's
  // rows; a reply with one row for an unrequested key throws; garbled
  // replies throw typed or place rows only under keys they begin with.
  std::mt19937_64 rng(0x100C);
  std::uint64_t threw_garbled = 0, unrequested = 0;
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const std::size_t klen = rng() % 4;
    std::vector<value_t> stored((rng() % 16) * 3);
    for (auto& v : stored) v = rng() % 4;
    core::sort_rows(stored, 3);
    std::vector<value_t> rows;  // unique rows
    for (std::size_t off = 0; off < stored.size(); off += 3) {
      if (rows.empty() || !std::equal(rows.end() - 3, rows.end(), stored.begin() + off)) {
        rows.insert(rows.end(), stored.begin() + off, stored.begin() + off + 3);
      }
    }
    // Requested keys: prefixes of about half the rows and a few random
    // ones, sorted and unique.
    std::vector<core::Tuple> uniq;
    for (std::size_t off = 0; off < rows.size(); off += 3) {
      if (rng() % 2 == 0) uniq.emplace_back(std::span<const value_t>(rows.data() + off, klen));
    }
    for (std::size_t r = rng() % 3; r > 0; --r) {
      core::Tuple key;
      for (std::size_t c = 0; c < klen; ++c) key.push_back(rng() % 5);
      uniq.push_back(key);
    }
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());

    // Each requested row goes to one random reply; each reply stays sorted.
    const std::size_t nrep = 1 + rng() % 4;
    std::vector<std::vector<value_t>> parts(nrep);
    std::vector<value_t> unasked;  // the first row no key requested
    for (std::size_t off = 0; off < rows.size(); off += 3) {
      const std::span<const value_t> row(rows.data() + off, 3);
      const bool asked = std::any_of(uniq.begin(), uniq.end(), [&](const core::Tuple& k) {
        return std::equal(k.view().begin(), k.view().end(), row.begin());
      });
      if (asked) {
        auto& part = parts[rng() % nrep];
        part.insert(part.end(), row.begin(), row.end());
      } else if (unasked.empty()) {
        unasked.assign(row.begin(), row.end());
      }
    }
    std::vector<Bytes> replies(nrep);
    for (std::size_t r = 0; r < nrep; ++r) {
      if (!parts[r].empty()) core::put_row_group(replies[r], 0, parts[r], 3);
    }
    const auto per = serving::decode_lookup_replies(replies, uniq, 3);
    ASSERT_EQ(per.size(), uniq.size());
    for (std::size_t k = 0; k < uniq.size(); ++k) {
      EXPECT_EQ(per[k], rows_with_prefix(rows, uniq[k])) << "key " << k;
    }

    if (!unasked.empty()) {
      // Well-formed and sorted, but carrying a row nobody requested.
      auto& part = parts[rng() % nrep];
      std::size_t at = 0;
      while (at < part.size() &&
             std::lexicographical_compare(part.begin() + static_cast<std::ptrdiff_t>(at),
                                          part.begin() + static_cast<std::ptrdiff_t>(at + 3),
                                          unasked.begin(), unasked.end())) {
        at += 3;
      }
      part.insert(part.begin() + static_cast<std::ptrdiff_t>(at), unasked.begin(),
                  unasked.end());
      std::vector<Bytes> bad(nrep);
      for (std::size_t r = 0; r < nrep; ++r) {
        if (!parts[r].empty()) core::put_row_group(bad[r], 0, parts[r], 3);
      }
      EXPECT_THROW((void)serving::decode_lookup_replies(bad, uniq, 3), vmpi::FrameDecodeError);
      ++unrequested;
    }

    const std::size_t victim = rng() % nrep;
    std::vector<Bytes> garbled = replies;
    garbled[victim] = replies[victim].empty() ? random_bytes(rng, 1 + rng() % 48)
                                              : garble(rng, replies[victim]);
    expect_placed_or_typed(std::vector<Bytes>(garbled.begin(), garbled.end()), uniq,
                           threw_garbled);
  }
  EXPECT_GT(unrequested, 0u);
  EXPECT_GT(threw_garbled, 0u);
}

}  // namespace
}  // namespace paralagg
