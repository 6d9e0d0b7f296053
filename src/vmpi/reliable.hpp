#pragma once

// The one integrity and duplicate-filter layer of the virtual MPI
// substrate.
//
// Whenever the World's FaultPlan can touch a message, every faultable send
// (Comm::isend is the only faultable entry point) is wrapped in a 4-word
// envelope [magic | logical seq | piggybacked cumulative ack | crc], where
// the CRC covers the sequence number, the piggybacked ack, and the payload.
// No other layer frames, checksums, or dedups mailbox traffic: a frame
// carries exactly one 32-byte header and gets exactly one CRC pass.  The
// receiver's per-edge sequence window discards wire duplicates (injected
// dups, or retransmits racing a delayed original) before the application
// sees them.  What happens to a damaged or missing frame depends on the
// RetryPolicy:
//
//   * healing (max_attempts > 0): the sender keeps each unacknowledged
//     frame in a per-edge retransmit ring, trimmed at the receiver's
//     cumulative-ACK high watermark (piggybacked on reverse data traffic,
//     or carried by explicit ACK control messages when no reverse traffic
//     exists).  A frame that fails its CRC triggers an immediate NACK — a
//     retransmit request — instead of an abort; dropped frames are
//     recovered by deterministic exponential-backoff retransmit timers (a
//     receiver cannot NACK a frame it never saw, so sender timers are the
//     only mechanism that covers a dropped *final* frame).  When the budget
//     is exhausted — max_attempts retransmits of one frame, or the
//     per-frame deadline — the caller poisons the world
//     (World::fault_abort) and raises a TimeoutError whose message embeds
//     the healing counters.
//   * detect, don't heal (max_attempts = 0): no retransmit ring copy, no
//     timers, no ACK traffic.  A CRC failure raises FrameDecodeError (the
//     caller poisons the world first); a gap is never filled, so the
//     starved receive trips the watchdog at its fixed deadline.  This is
//     the fail-stop contract, enforced by the same envelope.
//
// Control traffic (ACK/NACK) rides the unfaulted reliable_send path, the
// same modelling choice as the scheduled-collective relay legs: acks model
// the transport-level control traffic under real MPI, and keeping them
// lossless makes healing convergent (no ack-of-ack recursion) and the
// escalation deterministic.  Retransmitted *data* frames, in contrast,
// re-enter the faultable path with a fresh per-edge physical sequence
// number — every retransmit gets an independent fault roll, which is what
// makes "drop every retransmit of one edge" an expressible test plan.
//
// Determinism note: retransmit *timing* is wall-clock driven, so healing
// counters are schedule-deterministic only when the plan makes them so
// (e.g. a directed drop_prob = 1 edge retransmits exactly max_attempts
// times and then escalates).  Fixpoints stay bit-identical regardless:
// the layer delivers every logical frame exactly once or aborts.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vmpi/serialize.hpp"
#include "vmpi/stats.hpp"

namespace paralagg::vmpi {

/// Retransmit budget of the reliable channel.  max_attempts = 0 keeps the
/// envelope (CRC check, sequence-window dedup) but never heals: the
/// detect-only fail-stop mode.
struct RetryPolicy {
  /// Retransmits allowed per frame beyond the initial send; attempt k
  /// (0-based) fires base_backoff * 2^k after the previous one.
  std::uint32_t max_attempts = 5;
  /// Seconds before the first retransmit of an unacked frame.
  double base_backoff = 0.05;
  /// Hard ceiling (seconds) on how long one frame may stay unacked before
  /// the channel escalates, even with attempts left.
  double deadline = 8.0;

  /// True when the channel heals (retransmits); false is detect-only.
  [[nodiscard]] bool enabled() const { return max_attempts > 0; }
};

/// Tag of the ACK/NACK control messages; disjoint from every application
/// tag space (mailbox alltoallv 0x41A2...., Bruck 0x42......, scheduled
/// collectives 0x44......, async 0x51A5..../0x53AF....).  Control frames are never visible to recv /
/// iprobe matching.
inline constexpr int kReliableCtrlTag = 0x4AC50000;

/// Per-rank reliable-delivery state machine.  Owned by Comm (one per rank
/// thread, no internal locking); Comm moves bytes, the channel decides
/// what to (re)send, deliver, discard, or escalate.
class ReliableChannel {
 public:
  /// Size of the envelope header every faultable frame carries.
  static constexpr std::size_t kEnvelopeBytes = 4 * sizeof(std::uint64_t);

  /// One wire operation the channel wants performed.  Data frames go back
  /// through the faultable enqueue (fresh fault roll per retransmit);
  /// control frames go through the reliable enqueue under kReliableCtrlTag.
  struct WireAction {
    bool ctrl;
    int dst;
    int tag;  // data frames only: the original application tag
    Bytes bytes;
  };

  /// The frame that exhausted its retry budget (sticky once set).
  struct Failure {
    int dst = -1;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 0;
    double waited_seconds = 0;
  };

  ReliableChannel(int rank, int nranks, const RetryPolicy& policy, CommStats* stats);

  /// Sender path: envelope `payload` for `dst` (logical seq + piggybacked
  /// ack) and return the wire bytes.  When healing, the payload is also
  /// kept in the retransmit ring until acknowledged.
  [[nodiscard]] Bytes send_data(int dst, int tag, std::span<const std::byte> payload,
                                double now);

  /// Receiver path: process one enveloped data frame from `src`.  Returns
  /// a view of the payload inside `frame` if the frame is fresh (deliver
  /// it), or nullopt if the channel consumed it (a duplicate, or — when
  /// healing — a corrupt frame it NACKed).  Detect-only, a corrupt frame
  /// throws FrameDecodeError instead.
  std::optional<std::span<const std::byte>> on_data(int src, std::span<const std::byte> frame,
                                                    double now);

  /// Receiver path: process one ACK/NACK control frame from `src`.
  void on_ctrl(int src, const Bytes& frame, double now);

  /// Fire due retransmit timers and queue pending explicit ACKs (no-op
  /// when detect-only).
  void poll(double now);

  /// Drain the wire operations accumulated by on_data / on_ctrl / poll.
  [[nodiscard]] std::vector<WireAction> take_outbox();

  /// Set once a frame exhausts its budget; the caller escalates.
  [[nodiscard]] const std::optional<Failure>& failure() const { return failure_; }

  /// True if any healing progress (a cumulative ack advanced, a fresh
  /// frame was delivered) happened since the last call; consuming resets
  /// the flag.  Blocking waits use this to re-arm their watchdog per
  /// retransmit round instead of once per call.  Always false when
  /// detect-only: the watchdog keeps its fixed deadline.
  [[nodiscard]] bool take_progress() {
    const bool p = progressed_;
    progressed_ = false;
    return p && policy_.enabled();
  }

  /// One-line summary of the healing counters for embedding in escalated
  /// fault messages ("what healing was attempted before this abort").
  static std::string heal_summary(const CommStats& stats);

 private:
  struct TxFrame {
    std::uint64_t seq = 0;
    int tag = 0;
    Bytes payload;            // application payload (re-enveloped per send)
    std::uint32_t attempts = 0;  // retransmits so far (initial send excluded)
    double first_sent = 0;
    double next_retry = 0;
  };
  struct TxEdge {
    std::uint64_t next_seq = 1;   // 0 is never a valid logical seq
    std::uint64_t acked_cum = 0;  // peer's cumulative-ack high watermark
    std::deque<TxFrame> ring;     // unacked frames, ascending seq
  };
  struct RxEdge {
    std::uint64_t cum = 0;              // delivered contiguously through here
    std::vector<std::uint64_t> ahead;   // delivered beyond the gap (sorted)
    bool ack_pending = false;
  };

  void absorb_ack(int src, std::uint64_t cum, double now);
  void retransmit_front(TxEdge& edge, int dst, double now);
  Bytes envelope(int dst, std::uint64_t seq, std::span<const std::byte> payload);

  int rank_;
  RetryPolicy policy_;
  CommStats* stats_;
  std::vector<TxEdge> tx_;
  std::vector<RxEdge> rx_;
  std::vector<WireAction> outbox_;
  std::optional<Failure> failure_;
  bool progressed_ = false;
};

}  // namespace paralagg::vmpi
