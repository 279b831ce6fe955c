#include "net/endpoint.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace capes::net {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point then) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               then)
      .count();
}

void set_nonblocking_fd(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Endpoint::Endpoint(int fd, EndpointOptions opts)
    : opts_(opts),
      fd_(fd),
      out_(opts.ring_capacity,
           [&opts](std::vector<std::uint8_t>& buf) {
             buf.reserve(kFrameFixedBytes + opts.payload_reserve);
           }),
      in_(opts.ring_capacity, [&opts](InSlot& slot) {
        slot.frame.payload.reserve(opts.payload_reserve);
      }) {
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  } else {
    set_nonblocking_fd(wake_pipe_[0]);
    set_nonblocking_fd(wake_pipe_[1]);
  }
  encode_frame(kHeartbeatFrameType, 0, 0, 0, nullptr, 0, &heartbeat_buf_);
  read_buf_.resize(64 * 1024);
  io_thread_ = std::thread(&Endpoint::io_loop, this);
}

Endpoint::~Endpoint() { close(); }

bool Endpoint::send(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                    std::uint64_t sender, const std::uint8_t* payload,
                    std::size_t payload_size) {
  if (closed_ || !alive() || payload_size > kMaxFramePayload) {
    send_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::vector<std::uint8_t>* buf = out_.try_acquire();
  if (buf == nullptr) {
    // Every outbound slot is in flight toward a slow (or wedged) peer:
    // shed rather than stall the tick loop.
    send_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  buf->clear();
  encode_frame(type, tick, topic, sender, payload, payload_size, buf);
  out_.submit(buf);  // cannot fail: out_ is never closed
  wake();
  return true;
}

void Endpoint::recycle(InSlot* slot) {
  in_.release(slot);
  wake();
}

void Endpoint::wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // Nonblocking: a full pipe already holds a pending wake-up.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

void Endpoint::mark_dead() {
  dead_.store(true, std::memory_order_release);
  in_.close();  // recv() drains pending frames, then returns nullptr
}

void Endpoint::close() {
  if (closed_) return;
  closed_ = true;
  stop_.store(true, std::memory_order_release);
  wake();
  if (io_thread_.joinable()) io_thread_.join();
  mark_dead();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

bool Endpoint::flush_writes() {
  for (;;) {
    if (cur_out_ == nullptr && !cur_is_heartbeat_) {
      cur_out_ = out_.try_take();
      if (cur_out_ == nullptr) return true;  // nothing pending
      cur_off_ = 0;
    }
    const std::vector<std::uint8_t>& buf =
        cur_is_heartbeat_ ? heartbeat_buf_ : *cur_out_;
    while (cur_off_ < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + cur_off_,
                               buf.size() - cur_off_, MSG_NOSIGNAL);
      if (n > 0) {
        cur_off_ += static_cast<std::size_t>(n);
        bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
        last_send_ = Clock::now();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    cur_off_ = 0;
    if (cur_is_heartbeat_) {
      cur_is_heartbeat_ = false;
    } else {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      out_.release(cur_out_);
      cur_out_ = nullptr;
    }
  }
}

bool Endpoint::drain_parser() {
  for (;;) {
    InSlot* slot = in_.try_acquire();
    // Consumer holds every inbound slot: stop parsing (and reading) so
    // TCP back-pressures the peer instead of buffering unboundedly.
    in_stalled_ = slot == nullptr;
    if (in_stalled_) return true;
    const ParseResult r = parser_.next(&slot->frame);
    if (r != ParseResult::kOk || slot->frame.type == kHeartbeatFrameType) {
      in_.give_back(slot);  // heartbeats are liveness only
      if (r == ParseResult::kNeedMore) return true;
      if (r == ParseResult::kCorrupt) return false;
      continue;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    in_.submit(slot);
  }
}

bool Endpoint::read_frames() {
  if (!drain_parser()) return false;
  while (!in_stalled_) {
    const ssize_t n = ::recv(fd_, read_buf_.data(), read_buf_.size(), 0);
    if (n > 0) {
      bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      last_recv_ = Clock::now();
      parser_.feed(read_buf_.data(), static_cast<std::size_t>(n));
      if (!drain_parser()) return false;
      continue;
    }
    if (n == 0) return false;  // EOF: clean peer shutdown
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

void Endpoint::io_loop() {
  last_send_ = Clock::now();
  last_recv_ = last_send_;
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = static_cast<short>(
        (in_stalled_ ? 0 : POLLIN) |
        ((cur_out_ != nullptr || cur_is_heartbeat_ || !out_.empty())
             ? POLLOUT
             : 0));
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    ::poll(fds, wake_pipe_[0] >= 0 ? 2 : 1, 50);

    if (fds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
      if (!read_frames()) break;
    } else if (in_stalled_) {
      // A recycle may have freed a slot; finish parsing buffered bytes.
      if (!drain_parser()) break;
    }
    if (!flush_writes()) break;
    if (opts_.heartbeat_ms > 0 && cur_out_ == nullptr && !cur_is_heartbeat_ &&
        out_.empty() && ms_since(last_send_) >= opts_.heartbeat_ms) {
      cur_is_heartbeat_ = true;
      cur_off_ = 0;
      if (!flush_writes()) break;
    }
    if (opts_.idle_timeout_ms > 0 &&
        ms_since(last_recv_) >= opts_.idle_timeout_ms) {
      break;  // peer silent too long: declare it dead
    }
  }
  if (stop_.load(std::memory_order_acquire)) {
    // Clean shutdown (close(), not a link fault): linger briefly to
    // flush frames already queued — the protocol's Bye rides this, so a
    // polite disconnect is not a silent truncation.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(100);
    while ((cur_out_ != nullptr || cur_is_heartbeat_ || !out_.empty()) &&
           Clock::now() < deadline) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      ::poll(&pfd, 1, 10);
      if (!flush_writes()) break;
    }
  }
  mark_dead();
}

}  // namespace capes::net
