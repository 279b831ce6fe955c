#pragma once
// capes::bus — the control-network transport abstraction (§3.3). In the
// paper, Monitoring Agents ship PI messages to the Interface Daemon and
// the daemon broadcasts checked actions to Control Agents over a real
// control network: messages arrive late, out of order, or not at all,
// and the Replay DB's missing-entry tolerance exists precisely to absorb
// that. A bus::Transport decides every message's fate; bus::Channel
// (channel.hpp) queues accepted messages until their delivery tick.
//
// Two policies serve the three TransportKinds:
//  * SyncTransport — every message delivered on its send tick. Draining a
//    sync channel inside the same tick is bit-identical to the direct
//    function calls it replaced (the default, and the reproduction mode).
//    It is also the local channel policy of the tcp kind, the real
//    control network: TCP is a reliable FIFO per peer, so nothing is
//    dropped or delayed locally and drain order matches sync order. The
//    socket machinery lives in src/net/ and the remote-brain wiring in
//    src/core/, keyed off TransportKind::kTcp and the host/port fields
//    here. Loss only happens when a peer dies, and is surfaced through
//    PhaseReport::messages_dropped.
//  * SimTransport — seeded latency / jitter / drop model driven by the
//    simulator's tick clock. Per-message fates are *counter-based*: a
//    fate is a pure hash of (seed, topic, sender, send tick), never a
//    draw from a shared RNG stream, so results are identical no matter
//    how many worker threads publish concurrently or in what order.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/options.hpp"

namespace capes::bus {

/// A transport's verdict for one message.
struct Delivery {
  bool dropped = false;
  /// Earliest tick the message may be drained (>= send tick). Channels
  /// additionally clamp this so each sender's stream stays FIFO.
  std::int64_t deliver_tick = 0;
};

enum class TransportKind { kSync, kSim, kTcp };

/// Spec schemes (and capes.transport conf values), indexed by TransportKind.
inline constexpr std::string_view kTransportNames[] = {"sync", "sim", "tcp"};

/// Parsed form of a transport spec. The CLI / config grammar:
///   sync
///   sim[:latency_ticks=N,jitter=X,drop=P,seed=N]
///   tcp:host=H,port=N[,connect_timeout_ms=N]
struct TransportOptions {
  TransportKind kind = TransportKind::kSync;
  /// Fixed delivery delay in sampling ticks (sim only).
  std::int64_t latency_ticks = 1;
  /// Extra random delay: per message, uniform in [0, jitter) ticks
  /// (floored; 0 disables). A jitter of 2.0 adds 0 or 1 extra ticks.
  double jitter = 0.0;
  /// Per-message drop probability in [0, 1).
  double drop = 0.0;
  /// Seed for the per-message fate hash. When not explicitly set (via
  /// spec/config/code), CapesSystem derives one from the experiment seed
  /// so a seeded run fixes its network realization too.
  std::uint64_t seed = 0;
  bool seed_explicit = false;
  /// Daemon address (tcp only; host is required, port in [1, 65535] —
  /// port 0 is reserved for "ephemeral, print what you got" in the
  /// daemon binary and rejected in specs).
  std::string tcp_host;
  std::int64_t tcp_port = 0;
  /// Connect retry budget: the agent retries with capped backoff until
  /// this deadline (tcp only).
  std::int64_t connect_timeout_ms = 5000;
};

/// The sim: spec options; conf keys are capes.transport.<key>.
inline constexpr util::Option<TransportOptions> kSimTransportOptions[] = {
    {"latency_ticks", CAPES_FIELD(latency_ticks), util::at_least(0)},
    {"jitter", CAPES_FIELD(jitter), util::at_least(0)},
    {"drop", CAPES_FIELD(drop), util::probability()},
    {"seed", CAPES_FIELD(seed), {}, {}, CAPES_FIELD(seed_explicit)},
};

/// The tcp: spec options; conf keys are capes.transport.tcp.<key>. A conf
/// port clamps into [0, 65535], where a spec rejects 0.
inline constexpr util::Option<TransportOptions> kTcpTransportOptions[] = {
    {"host", CAPES_FIELD(tcp_host)},
    {"port", CAPES_FIELD(tcp_port), {.lo = 1, .hi = 65535, .clamp_lo = 0}},
    {"connect_timeout_ms", CAPES_FIELD(connect_timeout_ms), util::at_least(0)},
};

/// Transport policy: decides each message's fate. Implementations must be
/// pure per (topic, sender, send_tick) — plan() may be called more than
/// once for one message (publishers pre-check the drop fate before paying
/// for encoding) and from concurrent worker threads.
class Transport {
 public:
  virtual ~Transport();

  /// The fate of the message `sender` sends on `topic` at `send_tick`.
  virtual Delivery plan(std::uint64_t topic, std::uint64_t sender,
                        std::int64_t send_tick) const = 0;
};

/// Immediate delivery: deliver_tick == send_tick, nothing dropped (the
/// sync and tcp kinds).
class SyncTransport final : public Transport {
 public:
  Delivery plan(std::uint64_t topic, std::uint64_t sender,
                std::int64_t send_tick) const override;
};

/// Seeded latency / jitter / drop model (see TransportOptions fields).
class SimTransport final : public Transport {
 public:
  explicit SimTransport(const TransportOptions& opts);

  Delivery plan(std::uint64_t topic, std::uint64_t sender,
                std::int64_t send_tick) const override;

 private:
  TransportOptions opts_;
};

/// Fault-injection seam: wraps any inner transport and additionally
/// drops the messages a predicate condemns (control-network partition
/// windows), composing with — never replacing — the inner policy's own
/// latency / jitter / drop fates. The predicate must satisfy the same
/// contract as plan() itself: pure per (topic, sender, send_tick) and
/// safe to call from concurrent worker threads (the fault predicates in
/// sim/fault.hpp are pure hashes, so they qualify).
class FaultingTransport final : public Transport {
 public:
  using DropFn = std::function<bool(std::uint64_t topic, std::uint64_t sender,
                                    std::int64_t send_tick)>;

  FaultingTransport(std::unique_ptr<Transport> inner, DropFn drop);

  Delivery plan(std::uint64_t topic, std::uint64_t sender,
                std::int64_t send_tick) const override;

 private:
  std::unique_ptr<Transport> inner_;
  DropFn drop_;
};

/// Build the transport `opts` describes.
std::unique_ptr<Transport> make_transport(const TransportOptions& opts);

/// Parse "sync" / "sim[:k=v,...]" / "tcp:host=..,port=..[,...]" into
/// *out. Returns false (with a human-readable *error echoing the
/// offending key or token, if non-null) on an unknown scheme, an unknown
/// option key, a malformed or out-of-range value (the rows above), or a
/// tcp spec missing host or port.
bool parse_transport_spec(std::string_view spec, TransportOptions* out,
                          std::string* error = nullptr);

/// Canonical spec string for `opts` ("sync", "sim:latency_ticks=..."
/// listing every sim knob with seed only when explicitly set, or
/// "tcp:host=..,port=..,connect_timeout_ms=..").
/// Round-trips through parse_transport_spec.
std::string transport_spec_string(const TransportOptions& opts);

}  // namespace capes::bus
