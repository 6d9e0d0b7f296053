#include "async/termination.hpp"

#include <algorithm>
#include <string>

#include "vmpi/fault.hpp"
#include "vmpi/serialize.hpp"

namespace paralagg::async {

namespace {

// Token wire format: five little-endian u64 words.
//   [0] accumulated counter q (two's-complement int64)
//   [1] probe id (monotone per ring; rank 0 assigns, forwarders preserve)
//   [2] token colour (0 = white, 1 = black)
//   [3] watermark accumulator (min of the local epoch watermarks folded in
//       so far on this circulation)
//   [4] global watermark (the last fully-circulated minimum, distributed by
//       rank 0 so every holder can refresh its stale-synchronous estimate)
// Integrity and duplicate filtering belong to the reliable channel that
// carries the token; the probe id is the protocol check (a token is
// accepted at most once per rank per probe, and rank 0 only accepts the
// probe it actually launched).
constexpr std::size_t kTokenWords = 5;
constexpr std::size_t kTokenBytes = kTokenWords * sizeof(std::uint64_t);

vmpi::Bytes pack_token(std::int64_t q, std::uint64_t probe_id, bool black,
                       std::uint64_t wmark_acc, std::uint64_t wmark_global) {
  const std::uint64_t words[5] = {static_cast<std::uint64_t>(q), probe_id,
                                  black ? std::uint64_t{1} : std::uint64_t{0}, wmark_acc,
                                  wmark_global};
  vmpi::BufferWriter w(kTokenBytes);
  for (const std::uint64_t word : words) w.put(word);
  return w.take();
}

struct TokenWire {
  std::int64_t q;
  std::uint64_t probe_id;
  bool black;
  std::uint64_t wmark_acc;
  std::uint64_t wmark_global;
};

TokenWire unpack_token(const vmpi::Bytes& payload) {
  if (payload.size() != kTokenBytes) {
    throw vmpi::FrameDecodeError("safra: token frame has wrong size");
  }
  vmpi::BufferReader r(payload);
  const auto q = r.get<std::uint64_t>();
  const auto probe_id = r.get<std::uint64_t>();
  const auto black = r.get<std::uint64_t>();
  const auto wmark_acc = r.get<std::uint64_t>();
  const auto wmark_global = r.get<std::uint64_t>();
  if (black > 1) {
    throw vmpi::FrameDecodeError("safra: token colour out of range");
  }
  return TokenWire{static_cast<std::int64_t>(q), probe_id, black != 0, wmark_acc,
                   wmark_global};
}

}  // namespace

void TerminationDetector::on_control(int src, int tag, const vmpi::Bytes& payload) {
  (void)src;
  if (tag == terminate_tag()) {
    // Terminate is idempotent; duplicates are harmless by construction.
    terminated_ = true;
    return;
  }
  if (tag != token_tag()) {
    throw vmpi::FrameDecodeError("safra: control message with a foreign tag");
  }
  const TokenWire wire = unpack_token(payload);

  // Protocol check.  Probe ids are strictly increasing, one token
  // circulates at a time, and each probe visits every rank exactly once,
  // so a token whose id is not *new* (or, on rank 0, not the outstanding
  // probe) cannot come from a working ring — the reliable channel already
  // dropped wire duplicates.  Accepting it would double-count counters
  // into q and wreck the quiescence decision, so it is a typed error.
  const bool fresh = comm_->rank() == 0
                         ? (probe_outstanding_ && wire.probe_id == probe_id_)
                         : wire.probe_id > seen_probe_id_;
  if (!fresh || has_token_) {
    throw vmpi::FrameDecodeError("safra: stale or second token for probe " +
                                 std::to_string(wire.probe_id));
  }
  if (comm_->rank() != 0) seen_probe_id_ = wire.probe_id;
  token_q_ = wire.q;
  token_black_ = wire.black;
  token_probe_id_ = wire.probe_id;
  token_wmark_acc_ = wire.wmark_acc;
  has_token_ = true;
  // The distributed watermark is a completed-circulation minimum, so it is
  // always ≤ the true global minimum — adopting the larger estimate is safe
  // and lets a stale-synchronous holder unblock without waiting a full
  // extra circulation.
  global_watermark_ = std::max(global_watermark_, wire.wmark_global);
}

std::size_t TerminationDetector::poll() {
  std::size_t handled = 0;
  handled += comm_->drain(token_tag(),
                          [&](int src, vmpi::Bytes b) { on_control(src, token_tag(), b); });
  handled += comm_->drain(terminate_tag(), [&](int src, vmpi::Bytes b) {
    on_control(src, terminate_tag(), b);
  });
  return handled;
}

void TerminationDetector::try_terminate() {
  if (terminated_) return;

  // Degenerate ring: with one rank there is nobody to hear from, so
  // passivity plus a balanced counter *is* global quiescence (once the
  // caller's own watermark has reached the required epoch).
  if (comm_->size() == 1) {
    if (counter_ == 0 && local_watermark_ >= required_watermark_) terminated_ = true;
    return;
  }

  if (has_token_) {
    has_token_ = false;
    if (comm_->rank() == 0) {
      evaluate_token();
    } else {
      forward_token();
    }
  }
  if (!terminated_ && comm_->rank() == 0 && !probe_outstanding_) start_probe();
}

void TerminationDetector::start_probe() {
  // Rank 0 whitens itself and launches a white, empty token.  (Any app
  // receive before the token returns re-blackens rank 0 and voids the
  // probe, which is the point.)
  black_ = false;
  ++probe_id_;
  comm_->isend(1 % comm_->size(), token_tag(),
               pack_token(0, probe_id_, false, local_watermark_, global_watermark_));
  probe_outstanding_ = true;
  ++stats_.probes_started;
}

void TerminationDetector::forward_token() {
  comm_->isend((comm_->rank() + 1) % comm_->size(), token_tag(),
               pack_token(token_q_ + counter_, token_probe_id_, token_black_ || black_,
                          std::min(token_wmark_acc_, local_watermark_),
                          global_watermark_));
  black_ = false;  // this rank's activity is now folded into the token
  ++stats_.tokens_forwarded;
}

void TerminationDetector::evaluate_token() {
  probe_outstanding_ = false;
  // A returned token carries the min over every *other* rank's watermark at
  // forwarding time; folding rank 0's own makes it a completed-circulation
  // global minimum — the value the next token distributes.
  global_watermark_ =
      std::max(global_watermark_, std::min(token_wmark_acc_, local_watermark_));
  if (!token_black_ && !black_ && token_q_ + counter_ == 0 &&
      global_watermark_ >= required_watermark_) {
    announce();
  }
  // Failed probe: try_terminate() launches the next one immediately —
  // rank 0 only reaches here while passive, so no spin, the next token
  // round is message-driven like the last.
}

void TerminationDetector::announce() {
  const vmpi::Bytes empty;
  for (int r = 1; r < comm_->size(); ++r) comm_->isend(r, terminate_tag(), empty);
  terminated_ = true;
}

}  // namespace paralagg::async
