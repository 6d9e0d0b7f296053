#include "vmpi/reliable.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "vmpi/crc32.hpp"
#include "vmpi/fault.hpp"

namespace paralagg::vmpi {

namespace {

// "PARARELI" / "PARACTRL": distinct, so a data frame can never parse as a
// control frame (and vice versa).
constexpr std::uint64_t kEnvelopeMagic = 0x50'41'52'41'52'45'4C'49ULL;
constexpr std::uint64_t kCtrlMagic = 0x50'41'52'41'43'54'52'4CULL;
constexpr std::size_t kEnvelopeWords = 4;
constexpr std::size_t kEnvelopeBytes = ReliableChannel::kEnvelopeBytes;
static_assert(kEnvelopeBytes == kEnvelopeWords * sizeof(std::uint64_t));

enum class CtrlKind : std::uint64_t { kAck = 0, kNack = 1 };

// CRC over (seq, piggybacked cum, payload length, payload bytes): a flipped
// byte anywhere in the frame — header included — fails it.  Covering the cum
// word matters: an unprotected corrupt cum would be *believed* and falsely
// trim the sender's retransmit ring, losing the ability to heal later drops.
std::uint32_t frame_crc(std::uint64_t seq, std::uint64_t cum,
                        std::span<const std::byte> payload) {
  std::uint64_t head[3] = {seq, cum, payload.size()};
  std::uint32_t state = crc32_update(
      kCrc32Init, std::span<const std::byte>(reinterpret_cast<const std::byte*>(head),
                                             sizeof head));
  state = crc32_update(state, payload);
  return state ^ kCrc32Init;
}

std::uint64_t read_word(std::span<const std::byte> b, std::size_t i) {
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + i * sizeof(std::uint64_t), sizeof w);
  return w;
}

}  // namespace

ReliableChannel::ReliableChannel(int rank, int nranks, const RetryPolicy& policy,
                                 CommStats* stats)
    : rank_(rank), policy_(policy), stats_(stats) {
  tx_.resize(static_cast<std::size_t>(nranks));
  rx_.resize(static_cast<std::size_t>(nranks));
  // Grow-only: a channel is recreated after Comm::fault_reset, and the
  // accumulated per-edge heal counters must survive that.
  const auto n = static_cast<std::size_t>(nranks);
  if (stats_->edge_retransmits.size() < n) stats_->edge_retransmits.resize(n, 0);
  if (stats_->edge_nacks.size() < n) stats_->edge_nacks.resize(n, 0);
  if (stats_->edge_heal_seconds.size() < n) stats_->edge_heal_seconds.resize(n, 0);
}

Bytes ReliableChannel::envelope(int dst, std::uint64_t seq,
                                std::span<const std::byte> payload) {
  Bytes wire(kEnvelopeBytes + payload.size());
  auto& rx = rx_[static_cast<std::size_t>(dst)];
  const std::uint64_t words[kEnvelopeWords] = {
      kEnvelopeMagic, seq, rx.cum,
      static_cast<std::uint64_t>(frame_crc(seq, rx.cum, payload))};
  std::memcpy(wire.data(), words, kEnvelopeBytes);
  if (!payload.empty()) {
    std::memcpy(wire.data() + kEnvelopeBytes, payload.data(), payload.size());
  }
  // The data frame carries our cumulative ack for dst; an explicit ACK
  // would be redundant (and if this frame is lost, the dup-triggered
  // re-ack path converges).
  rx.ack_pending = false;
  return wire;
}

Bytes ReliableChannel::send_data(int dst, int tag, std::span<const std::byte> payload,
                                 double now) {
  auto& edge = tx_[static_cast<std::size_t>(dst)];
  const std::uint64_t seq = edge.next_seq++;
  if (!policy_.enabled()) return envelope(dst, seq, payload);  // nothing to retransmit
  TxFrame frame;
  frame.seq = seq;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  frame.first_sent = now;
  frame.next_retry = now + policy_.base_backoff;
  Bytes wire = envelope(dst, seq, frame.payload);
  edge.ring.push_back(std::move(frame));
  return wire;
}

std::optional<std::span<const std::byte>> ReliableChannel::on_data(
    int src, std::span<const std::byte> frame, double now) {
  auto& rx = rx_[static_cast<std::size_t>(src)];
  const bool well_formed =
      frame.size() >= kEnvelopeBytes && read_word(frame, 0) == kEnvelopeMagic;
  std::uint64_t seq = 0;
  bool valid = false;
  if (well_formed) {
    seq = read_word(frame, 1);
    // Full-word compare: a flip in the CRC word's unused high half is
    // damage too, not a frame to accept.
    valid = read_word(frame, 3) == frame_crc(seq, read_word(frame, 2),
                                             frame.subspan(kEnvelopeBytes));
  }
  if (!valid) {
    if (!policy_.enabled()) {
      throw FrameDecodeError("reliable: frame from rank " + std::to_string(src) +
                             " failed its envelope CRC");
    }
    // Corrupt on the wire (a flipped byte anywhere in the frame).  The
    // header may be unreadable, so the NACK carries only our cumulative
    // watermark: "everything after cum is suspect — resend".  The sender
    // answers by retransmitting its oldest unacked frame; timers cover
    // the rest.
    stats_->nacks_sent += 1;
    stats_->edge_nacks[static_cast<std::size_t>(src)] += 1;
    BufferWriter w(3 * sizeof(std::uint64_t));
    w.put<std::uint64_t>(kCtrlMagic);
    w.put<std::uint64_t>(static_cast<std::uint64_t>(CtrlKind::kNack));
    w.put<std::uint64_t>(rx.cum);
    outbox_.push_back(WireAction{true, src, 0, w.take()});
    return std::nullopt;
  }

  // Intact frame: absorb the piggybacked ack first (even a duplicate
  // carries fresh reverse-channel information).
  absorb_ack(src, read_word(frame, 2), now);

  if (seq <= rx.cum ||
      std::binary_search(rx.ahead.begin(), rx.ahead.end(), seq)) {
    // Duplicate: an injected dup, or a retransmit racing the (delayed)
    // original.  The sender clearly hasn't seen our ack — refresh it.
    stats_->reliable_dups_discarded += 1;
    stats_->dup_frames_discarded += 1;
    rx.ack_pending = true;
    return std::nullopt;
  }

  if (seq == rx.cum + 1) {
    ++rx.cum;
    // Absorb any out-of-order deliveries the new watermark now reaches.
    auto it = rx.ahead.begin();
    while (it != rx.ahead.end() && *it == rx.cum + 1) {
      ++rx.cum;
      ++it;
    }
    rx.ahead.erase(rx.ahead.begin(), it);
  } else {
    rx.ahead.insert(std::lower_bound(rx.ahead.begin(), rx.ahead.end(), seq), seq);
  }
  rx.ack_pending = true;
  progressed_ = true;
  return frame.subspan(kEnvelopeBytes);
}

void ReliableChannel::on_ctrl(int src, const Bytes& frame, double now) {
  if (frame.size() != 3 * sizeof(std::uint64_t) || read_word(frame, 0) != kCtrlMagic) {
    return;  // control rides the unfaulted path; a mismatch is a stray frame
  }
  const auto kind = static_cast<CtrlKind>(read_word(frame, 1));
  const std::uint64_t cum = read_word(frame, 2);
  absorb_ack(src, cum, now);
  if (kind == CtrlKind::kNack) {
    // The receiver saw a corrupt frame after `cum`.  We cannot know which
    // one (its header was garbage), but the oldest unacked frame is the
    // one gating the receiver's watermark — resend it now.
    retransmit_front(tx_[static_cast<std::size_t>(src)], src, now);
  }
}

void ReliableChannel::absorb_ack(int src, std::uint64_t cum, double now) {
  auto& edge = tx_[static_cast<std::size_t>(src)];
  if (cum <= edge.acked_cum) return;
  edge.acked_cum = cum;
  while (!edge.ring.empty() && edge.ring.front().seq <= cum) {
    const TxFrame& f = edge.ring.front();
    if (f.attempts > 0) {
      // This frame needed healing; charge the time it spent unacked.
      const double healed = now - f.first_sent;
      stats_->heal_seconds += healed;
      stats_->edge_heal_seconds[static_cast<std::size_t>(src)] += healed;
      stats_->frames_healed += 1;
    }
    edge.ring.pop_front();
  }
  progressed_ = true;
}

void ReliableChannel::retransmit_front(TxEdge& edge, int dst, double now) {
  if (failure_ || edge.ring.empty()) return;
  TxFrame& f = edge.ring.front();
  if (f.attempts >= policy_.max_attempts || now - f.first_sent > policy_.deadline) {
    failure_ = Failure{dst, f.seq, f.attempts, now - f.first_sent};
    return;
  }
  ++f.attempts;
  // Deterministic exponential backoff: attempt k waits base * 2^k.
  f.next_retry = now + policy_.base_backoff * static_cast<double>(1ULL << f.attempts);
  stats_->retransmits += 1;
  stats_->edge_retransmits[static_cast<std::size_t>(dst)] += 1;
  outbox_.push_back(WireAction{false, dst, f.tag, envelope(dst, f.seq, f.payload)});
}

void ReliableChannel::poll(double now) {
  if (!policy_.enabled()) return;  // detect-only: no timers, no ACK traffic
  for (std::size_t d = 0; d < tx_.size(); ++d) {
    auto& edge = tx_[d];
    // Only the ring front retransmits on timer: it is the frame gating the
    // receiver's cumulative watermark, and resending one frame per edge
    // per round keeps the healing traffic (and the fault rolls it
    // consumes) bounded.  Later frames inherit the front's fate — an ack
    // covering the front usually covers them via the watermark, and if
    // not, they become the front next.
    if (!edge.ring.empty() && edge.ring.front().next_retry <= now) {
      retransmit_front(edge, static_cast<int>(d), now);
    }
    if (failure_) return;
  }
  for (std::size_t s = 0; s < rx_.size(); ++s) {
    auto& rx = rx_[s];
    if (rx.ack_pending) {
      rx.ack_pending = false;
      stats_->acks_sent += 1;
      BufferWriter w(3 * sizeof(std::uint64_t));
      w.put<std::uint64_t>(kCtrlMagic);
      w.put<std::uint64_t>(static_cast<std::uint64_t>(CtrlKind::kAck));
      w.put<std::uint64_t>(rx.cum);
      outbox_.push_back(WireAction{true, static_cast<int>(s), 0, w.take()});
    }
  }
}

std::vector<ReliableChannel::WireAction> ReliableChannel::take_outbox() {
  std::vector<WireAction> out;
  out.swap(outbox_);
  return out;
}

std::string ReliableChannel::heal_summary(const CommStats& stats) {
  std::string s = "healing attempted: " + std::to_string(stats.retransmits) +
                  " retransmits, " + std::to_string(stats.nacks_sent) + " nacks, " +
                  std::to_string(stats.reliable_dups_discarded) + " dups discarded, " +
                  std::to_string(stats.heal_seconds) + "s backoff";
  std::uint64_t worst = 0;
  std::size_t worst_edge = 0;
  for (std::size_t d = 0; d < stats.edge_retransmits.size(); ++d) {
    if (stats.edge_retransmits[d] > worst) {
      worst = stats.edge_retransmits[d];
      worst_edge = d;
    }
  }
  if (worst > 0) {
    s += "; worst edge ->" + std::to_string(worst_edge) + " (" + std::to_string(worst) +
         " retransmits)";
  }
  return s;
}

}  // namespace paralagg::vmpi
