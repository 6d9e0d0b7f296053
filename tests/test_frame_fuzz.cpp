// Seeded fuzzing of the two frame decoders that face the wire.
//
// ReliableChannel::on_data is the single envelope decoder: every faultable
// frame passes through it, so for any byte string it is handed the only
// allowed outcomes are the exact payload that was sent, or a typed
// rejection — nullopt (a NACKed corrupt frame or a discarded duplicate)
// when healing, FrameDecodeError when detect-only.  decode_route_frame is
// the structural decoder of the tuple frames the router and the async
// engine exchange, fed by the real encoder (put_route_group): garbled
// payloads, and frames read under another kind's route table, must either
// decode inside the buffer or throw FrameDecodeError, never read out of
// bounds (the asan-ubsan preset runs this binary too).  Every schedule is a pure
// function of the seed, so a failure replays exactly.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "core/exchange_router.hpp"
#include "core/program.hpp"
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

/// One well-formed tuple frame, up to three random route groups, built by
/// the real encoder (core::put_route_group).
Bytes route_frame(std::mt19937_64& rng, std::span<core::Relation* const> routes) {
  vmpi::TypedWriter<value_t> w;
  const std::size_t groups = rng() % 4;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t id = rng() % routes.size();
    const std::size_t arity = routes[id]->arity();
    std::vector<value_t> rows((rng() % 6) * arity);
    for (auto& v : rows) v = rng();
    EXPECT_EQ(core::put_route_group(w, id, rows, arity), rows.size() / arity);
  }
  return w.take();
}

/// Round-trip `kIterations` clean frames through decode_route_frame under
/// `routes`, then check that garbled copies decode inside the buffer or
/// throw typed — also when decoded under the `wrong` route table, whose
/// arities differ (a frame of one kind read as another).
void fuzz_route_codec(std::span<core::Relation* const> routes,
                      std::span<core::Relation* const> wrong, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uint64_t threw = 0;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes clean = route_frame(rng, routes);

    // The clean frame decodes completely, every row inside the buffer.
    std::size_t words = 0;
    core::decode_route_frame(clean, routes, [&](std::size_t id, std::span<const value_t> rows) {
      ASSERT_LT(id, routes.size());
      ASSERT_EQ(rows.size() % routes[id]->arity(), 0u);
      words += 2 + rows.size();
    });
    ASSERT_EQ(words * sizeof(value_t), clean.size()) << "iteration " << i;

    // A garbled frame, or a clean one read under the wrong table, decodes
    // inside the buffer or throws typed.
    const Bytes bad = clean.empty() ? random_bytes(rng, rng() % 96) : garble(rng, clean);
    for (const auto& [frame, table] : {std::pair{&bad, routes}, std::pair{&clean, wrong}}) {
      const auto* lo = reinterpret_cast<const value_t*>(frame->data());
      const auto* hi = lo + frame->size() / sizeof(value_t);
      try {
        core::decode_route_frame(*frame, table,
                                 [&](std::size_t id, std::span<const value_t> rows) {
                                   ASSERT_LT(id, table.size());
                                   ASSERT_TRUE(rows.empty() || (rows.data() >= lo &&
                                                                rows.data() + rows.size() <= hi));
                                 });
      } catch (const vmpi::FrameDecodeError&) {
        ++threw;
      }
    }
  }
  EXPECT_GT(threw, 0u);
}

TEST(FrameFuzz, RouterDecoderThrowsTypedOnGarbledFrames) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    std::vector<core::Relation*> targets{
        program.relation({.name = "pair", .arity = 2, .jcc = 1}),
        program.relation({.name = "triple", .arity = 3, .jcc = 1}),
    };
    // The async engine's probe frames decode under a route table of the
    // loop joins' probe relations, whose arities differ from the loop
    // targets' (the stage-frame table).  Each table also reads the other's
    // frames.
    std::vector<core::Relation*> join_probes{
        program.relation({.name = "quad", .arity = 4, .jcc = 2}),
        program.relation({.name = "single", .arity = 1, .jcc = 1}),
        program.relation({.name = "quint", .arity = 5, .jcc = 1}),
    };
    fuzz_route_codec(targets, join_probes, 0xC0FFEE);
    fuzz_route_codec(join_probes, targets, 0xFEED);
  });
}

}  // namespace
}  // namespace paralagg
