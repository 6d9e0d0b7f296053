// Seeded fuzzing of the two frame decoders that face the wire.
//
// ReliableChannel::on_data is the single envelope decoder: every faultable
// frame passes through it, so for any byte string it is handed the only
// allowed outcomes are the exact payload that was sent, or a typed
// rejection — nullopt (a NACKed corrupt frame or a discarded duplicate)
// when healing, FrameDecodeError when detect-only.  decode_route_frame is
// the router's structural decoder: garbled payloads must either decode
// inside the buffer or throw FrameDecodeError, never read out of bounds
// (the asan-ubsan preset runs this binary too).  Every schedule is a pure
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

/// One well-formed router frame: up to three random route groups.
Bytes route_frame(std::mt19937_64& rng, std::span<core::Relation* const> targets) {
  vmpi::TypedWriter<value_t> w;
  const std::size_t groups = rng() % 4;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t id = rng() % targets.size();
    const std::size_t rows = rng() % 6;
    w.put(static_cast<value_t>(id));
    w.put(static_cast<value_t>(rows));
    for (std::size_t v = 0; v < rows * targets[id]->arity(); ++v) w.put(rng());
  }
  return w.take();
}

TEST(FrameFuzz, RouterDecoderThrowsTypedOnGarbledFrames) {
  vmpi::run(1, [&](vmpi::Comm& comm) {
    core::Program program(comm);
    std::vector<core::Relation*> targets{
        program.relation({.name = "pair", .arity = 2, .jcc = 1}),
        program.relation({.name = "triple", .arity = 3, .jcc = 1}),
    };
    std::mt19937_64 rng(0xC0FFEE);
    std::uint64_t threw = 0;
    for (int i = 0; i < kIterations; ++i) {
      const Bytes clean = route_frame(rng, targets);

      // The clean frame decodes completely, every row inside the buffer.
      std::size_t words = 0;
      core::decode_route_frame(clean, targets, [&](std::size_t id, std::span<const value_t> rows) {
        ASSERT_LT(id, targets.size());
        ASSERT_EQ(rows.size() % targets[id]->arity(), 0u);
        words += 2 + rows.size();
      });
      ASSERT_EQ(words * sizeof(value_t), clean.size()) << "iteration " << i;

      // A garbled frame decodes inside the buffer or throws typed.
      const Bytes bad = clean.empty() ? random_bytes(rng, rng() % 96) : garble(rng, clean);
      const auto* lo = reinterpret_cast<const value_t*>(bad.data());
      const auto* hi = lo + bad.size() / sizeof(value_t);
      try {
        core::decode_route_frame(bad, targets, [&](std::size_t id, std::span<const value_t> rows) {
          ASSERT_LT(id, targets.size());
          ASSERT_TRUE(rows.empty() || (rows.data() >= lo && rows.data() + rows.size() <= hi));
        });
      } catch (const vmpi::FrameDecodeError&) {
        ++threw;
      }
    }
    EXPECT_GT(threw, 0u);
  });
}

}  // namespace
}  // namespace paralagg
