#pragma once

// Distributed termination detection: Safra's token-ring algorithm (the
// coloured-token refinement of Dijkstra's ring probe, EWD-998 shape).
//
// The asynchronous engine has no per-iteration barrier, so "the global
// delta is empty" cannot be decided with an allreduce — a rank that looks
// idle may be about to receive a delta that reactivates it.  Safra's
// algorithm decides quiescence with point-to-point messages only:
//
//   * every rank keeps a counter = (app messages sent) − (app messages
//     received), and a colour that turns *black* on every app receive;
//   * a token (accumulated counter q, token colour) circulates the ring
//     rank → (rank+1) mod n, forwarded only while the holder is *passive*
//     (no local work, nothing buffered to send);
//   * forwarding adds the rank's counter to q and taints the token black
//     if the rank is black; the rank then whitens itself;
//   * rank 0 initiates probes and, when the token returns, declares
//     termination iff the token is white, rank 0 is white, and
//     q + counter₀ == 0 (every message sent has been received).  A failed
//     probe simply starts a fresh one.
//
// Under vmpi, isend enqueues directly into the destination mailbox, so
// "in flight" means "enqueued but not yet received" — exactly what the
// counters measure.  The detector is engine-agnostic: callers report app
// traffic via on_app_send / on_app_receive, hand control messages to
// on_control (or let poll() drain them), and call try_terminate() whenever
// they are passive.  Once terminated() flips, it never reverts.
//
// Fault hardening: tokens ride the reliable channel, which checks and
// dedups them like any faultable frame; each token also carries a
// monotone probe id, and a token that fails the probe-id protocol check
// raises vmpi::FrameDecodeError instead of corrupting the quiescence
// decision.  A *dropped* token that the channel does not heal (retry
// budget 0) stalls the probe forever — that is not detectable here by
// design (Safra assumes reliable delivery) and is the async loop's
// progress watchdog's job.
//
// Epoch watermarks (stale-synchronous mode): each rank may publish a
// monotone `local watermark` — the number of epochs it has fully folded.
// Tokens accumulate the ring-wide minimum alongside Safra's counter and
// redistribute the last completed minimum, so every rank holds a safe
// (never-overestimating) estimate of the slowest peer's progress: the
// flow-control signal that bounds how far ahead a rank may run.  Rank 0
// additionally refuses to announce termination until the global minimum
// reaches `require_watermark(target)` — quiescence alone is not
// completion when epochs are pipelined, because a momentarily idle ring
// may still owe future epochs.  With the default target of 0 the fixpoint
// loops' behaviour is unchanged.

#include <cstdint>

#include "vmpi/comm.hpp"

namespace paralagg::async {

class TerminationDetector {
 public:
  /// Control-message tag block: token = base, terminate = base + 1.  Must
  /// not collide with any application tag on the same communicator.
  static constexpr int kDefaultTagBase = 0x53AF2A00;

  struct Stats {
    std::uint64_t probes_started = 0;    // tokens launched by rank 0
    std::uint64_t tokens_forwarded = 0;  // tokens this rank passed on
  };

  explicit TerminationDetector(vmpi::Comm& comm, int tag_base = kDefaultTagBase)
      : comm_(&comm), tag_base_(tag_base) {}

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  [[nodiscard]] int token_tag() const { return tag_base_; }
  [[nodiscard]] int terminate_tag() const { return tag_base_ + 1; }
  [[nodiscard]] bool owns_tag(int tag) const {
    return tag == token_tag() || tag == terminate_tag();
  }

  /// Report `n` application messages sent / received.  Receives blacken
  /// this rank (its activity may have escaped the current probe).
  void on_app_send(std::uint64_t n = 1) { counter_ += static_cast<std::int64_t>(n); }
  void on_app_receive(std::uint64_t n = 1) {
    counter_ -= static_cast<std::int64_t>(n);
    black_ = true;
  }

  /// Consume one control message (token or terminate) addressed to this
  /// detector.  Tokens are only *stored* here; they move on the next
  /// try_terminate(), which is the caller's assertion of passivity.
  void on_control(int src, int tag, const vmpi::Bytes& payload);

  /// Nonblocking drain of queued control messages.  Returns how many were
  /// consumed.  Safe to call while active: a token received early simply
  /// waits for passivity.
  std::size_t poll();

  /// Caller is passive right now (no local work, all sends flushed): hold
  /// up the protocol's end — forward or evaluate a held token, and on rank
  /// 0 launch a probe if none is outstanding.  May flip terminated().
  void try_terminate();

  [[nodiscard]] bool terminated() const { return terminated_; }
  [[nodiscard]] std::int64_t counter() const { return counter_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publish this rank's epoch watermark (monotone: epochs fully folded
  /// locally).  Rides the next token this rank launches or forwards.
  void set_local_watermark(std::uint64_t w) {
    if (w > local_watermark_) local_watermark_ = w;
    if (comm_->size() == 1 && local_watermark_ > global_watermark_) {
      global_watermark_ = local_watermark_;
    }
  }

  /// Safe lower bound on min-over-ranks of the local watermarks: the last
  /// completed token circulation's minimum (or better, if a later token
  /// already carried a fresher one through this rank).
  [[nodiscard]] std::uint64_t global_watermark() const { return global_watermark_; }

  /// Rank 0 will not announce termination until the global watermark
  /// reaches `target`.  Default 0: pure Safra quiescence, as the fixpoint
  /// loops expect.
  void require_watermark(std::uint64_t target) { required_watermark_ = target; }

 private:
  void start_probe();
  void forward_token();
  void evaluate_token();
  void announce();

  vmpi::Comm* comm_;
  int tag_base_;

  std::int64_t counter_ = 0;  // app sends − app receives on this rank
  bool black_ = false;        // received an app message since last whitening
  bool terminated_ = false;

  bool has_token_ = false;
  std::int64_t token_q_ = 0;
  bool token_black_ = false;
  std::uint64_t token_probe_id_ = 0;   // id of the held token
  std::uint64_t token_wmark_acc_ = 0;  // watermark min folded into the held token

  std::uint64_t local_watermark_ = 0;     // epochs fully folded on this rank
  std::uint64_t global_watermark_ = 0;    // last completed circulation minimum
  std::uint64_t required_watermark_ = 0;  // rank 0: announce gate
  bool probe_outstanding_ = false;    // rank 0 only
  std::uint64_t probe_id_ = 0;        // rank 0: id of the last launched probe
  std::uint64_t seen_probe_id_ = 0;   // rank>0: highest probe id accepted

  Stats stats_;
};

}  // namespace paralagg::async
