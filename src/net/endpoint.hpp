#pragma once
// One connected peer: a nonblocking socket driven by a dedicated poll()
// I/O thread, with one util::SlotQueue per direction between that thread
// and the single control thread, so the warm tick path neither allocates
// nor blocks on a slow peer:
//
//   control thread                       I/O thread
//   send(): acquire ─→ encode ─→ submit ─→ take ─→ write() ─→ release
//           (no free slot ⇒ shed + count send_dropped, never block)
//   recv(): take ─→ consume ─→ recycle() ─→ release ─→ acquire ─→ parse
//
// The I/O thread also owns liveness: it emits a heartbeat frame after
// heartbeat_ms of send silence (keeping the link warm while the control
// thread runs a long simulation step) and declares the peer dead after
// idle_timeout_ms of receive silence or on EOF/error — closing the
// inbound queue so a blocked recv() wakes with nullptr. Heartbeats never
// surface to the consumer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "util/slot_queue.hpp"

namespace capes::net {

struct EndpointOptions {
  /// Slots per direction. A full outbound ring sheds (send_dropped), a
  /// full inbound ring back-pressures the socket (the peer's ring then
  /// sheds) — the control thread is never the one blocked.
  std::size_t ring_capacity = 1024;
  /// Bytes pre-reserved per slot so steady-state frames re-use capacity.
  std::size_t payload_reserve = 512;
  /// Send a heartbeat after this much outbound silence (0 disables).
  std::int64_t heartbeat_ms = 1000;
  /// Declare the peer dead after this much inbound silence (0 disables);
  /// must comfortably exceed the peer's heartbeat_ms.
  std::int64_t idle_timeout_ms = 30000;
};

/// A received frame riding a recycled slot. Consumers hand it back with
/// Endpoint::recycle() once the payload has been copied or applied.
struct InSlot {
  Frame frame;
};

class Endpoint {
 public:
  /// Takes ownership of a connected, nonblocking fd (from tcp_connect /
  /// accept_connection) and starts the I/O thread.
  Endpoint(int fd, EndpointOptions opts);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Queue one frame for transmission. Returns false — and counts the
  /// frame in send_dropped() — when the link is dead, every outbound
  /// slot is in flight, or `payload_size` exceeds kMaxFramePayload (a
  /// frame the peer's parser would reject, killing the link). Never
  /// blocks, never allocates once warm.
  bool send(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
            std::uint64_t sender, const std::uint8_t* payload,
            std::size_t payload_size);

  /// Block until a frame arrives. nullptr means the peer is gone and the
  /// inbound queue is drained — the consumer's loop-exit condition.
  InSlot* recv() { return in_.take(); }

  /// Non-blocking recv (nullptr when nothing is pending).
  InSlot* try_recv() { return in_.try_take(); }

  /// Return a slot obtained from recv()/try_recv() to the inbound pool.
  void recycle(InSlot* slot);

  /// False once the I/O thread has observed EOF, an error, or an idle
  /// timeout. Frames may still be pending in recv() after death.
  bool alive() const { return !dead_.load(std::memory_order_acquire); }

  /// Stop the I/O thread and close the socket. send() after this sheds;
  /// recv() drains then returns nullptr. Idempotent; the destructor
  /// calls it.
  void close();

  std::uint64_t send_dropped() const {
    return send_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

 private:
  void io_loop();
  void wake();          ///< nudge the poll() sleeper via the self-pipe
  void mark_dead();
  bool flush_writes();  ///< false on a fatal socket error
  bool read_frames();   ///< false on EOF/error/corrupt stream
  bool drain_parser();  ///< false on a corrupt stream

  EndpointOptions opts_;
  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< send() nudges the poll() sleeper

  /// Encoded frames, control thread → I/O thread.
  util::SlotQueue<std::vector<std::uint8_t>> out_;
  /// Parsed frames, I/O thread → control thread.
  util::SlotQueue<InSlot> in_;

  std::atomic<bool> dead_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> send_dropped_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};

  // I/O-thread-private state.
  FrameParser parser_;
  std::vector<std::uint8_t>* cur_out_ = nullptr;  ///< mid-write (partial send)
  std::size_t cur_off_ = 0;
  bool cur_is_heartbeat_ = false;
  std::vector<std::uint8_t> heartbeat_buf_;
  bool in_stalled_ = false;          ///< no free inbound slot: stop reading
  std::vector<std::uint8_t> read_buf_;
  std::chrono::steady_clock::time_point last_send_;
  std::chrono::steady_clock::time_point last_recv_;

  std::thread io_thread_;
  bool closed_ = false;  ///< control-thread guard for close() idempotence
};

}  // namespace capes::net
