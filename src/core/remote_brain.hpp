#pragma once
// The distributed control plane's wire protocol and its agent-side half.
//
// CAPES §3.3 deploys the Monitoring Agents and Control Agents on the
// storage cluster and the Interface Daemon + DRL Engine on a dedicated
// learner box. This header defines the protocol both processes speak
// over a net::Endpoint, and BrainClient — the piece that lets a
// CapesSystem whose transport is `tcp:` run its cluster locally while
// the brain (Replay DB, DRL Engine, action checking) lives in a remote
// capes_daemond.
//
// Frame types reuse the capture::RecordType values 1..7 for every
// message that mirrors a flight-recorder record (PI status, reward,
// action, broadcast, phase markers, workload change) — the tcp wire
// carries the exact topic/sender/tick framing the capture file does, so
// a capture taken on the agent side of a distributed run replays
// byte-identically through capes_replay. Control frames (handshake,
// tick barriers, acks) live above that range.
//
// Per-tick lock step: the client ships this tick's status + reward
// frames, then kFrameTickDone; the service ingests them in FIFO order,
// runs the same LocalBrain tick step the in-process system runs (against
// parameter mirrors of the agent-side domains), streams the resulting
// kBroadcast frame back, and closes the tick with kFrameActionsDone.
// Because the service consumes frames in send order and runs the same
// deterministic code, a loopback run with zero loss is bit-identical to
// the `sync` transport — the equivalence bar tests/integration/
// test_distributed holds it to.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "capture/trace_meta.hpp"
#include "capture/wire_format.hpp"
#include "core/brain.hpp"
#include "core/control_domain.hpp"
#include "net/endpoint.hpp"
#include "rl/action_space.hpp"

namespace capes::capture {
class WireLogWriter;
}  // namespace capes::capture

namespace capes::core {

/// Bumped on any incompatible wire change; both sides echo it in the
/// handshake and a mismatch aborts the session before any state exists.
inline constexpr std::uint32_t kWireProtoVersion = 1;

/// Control frame types, above the capture::RecordType range (1..7) those
/// record-mirroring frames reuse. 255 is the endpoint-internal heartbeat.
inline constexpr std::uint8_t kFrameHello = 16;       ///< client -> service
inline constexpr std::uint8_t kFrameHelloAck = 17;    ///< service -> client
inline constexpr std::uint8_t kFrameTickDone = 18;    ///< client -> service
inline constexpr std::uint8_t kFrameActionsDone = 19; ///< service -> client
inline constexpr std::uint8_t kFrameParamsReset = 20; ///< client -> service
inline constexpr std::uint8_t kFramePhaseEndAck = 21; ///< service -> client
inline constexpr std::uint8_t kFrameBye = 22;         ///< client -> service

/// The record-mirroring frame types, by name.
constexpr std::uint8_t frame_type(capture::RecordType t) {
  return static_cast<std::uint8_t>(t);
}

/// The phase byte in kFrameTickDone / kPhaseBegin / kPhaseEnd payloads
/// is the RunPhase value, as in capture phase records: never reorder it.
static_assert(static_cast<int>(RunPhase::kTraining) == 1 &&
              static_cast<int>(RunPhase::kBaseline) == 2 &&
              static_cast<int>(RunPhase::kTuned) == 3);

/// One control domain as described in the Hello: where its action slice
/// starts in the composite action namespace, and its tunable parameters
/// (enough for the service to rebuild the domain's ActionSpace + Action
/// Checker and mirror its parameter vector).
struct RemoteDomain {
  std::uint64_t action_offset = 1;
  std::vector<rl::TunableParameter> params;
};

/// The kFrameHello payload: the same TraceMeta snapshot a capture file
/// leads with (topology + every engine/DQN/replay hyperparameter and
/// seed), plus the per-domain action-space layout. The service rebuilds
/// its Replay DB and DRL Engine from this exactly as capes_replay does
/// from a capture — which is what makes the two bit-identical.
struct HelloPayload {
  capture::TraceMeta meta;
  std::vector<RemoteDomain> domains;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello);
/// nullopt on a version mismatch or a truncated/garbled payload.
std::optional<HelloPayload> decode_hello(const std::vector<std::uint8_t>& blob);

/// The agent-side half of the distributed control plane: the Brain a
/// CapesSystem under `tcp:` drives, standing in for the in-process
/// LocalBrain:
///
///   sample_all_agents -> inbox() -> flush_status(t)     (kStatus frames)
///   reward            -> send_reward(t, ...)            (kReward frame)
///   action + train    -> end_tick(t, mode)              (kFrameTickDone,
///                        blocks for kBroadcast* + kFrameActionsDone)
///
/// The send path rides the endpoint's recycled slots, so the warm tick
/// path stays allocation-free and never blocks on a slow daemon — a full
/// outbound ring sheds frames into stats().dropped, the same surface a
/// lossy SimTransport reports on. A dead peer never hangs the loop:
/// every blocking wait exits when the endpoint marks the link dead.
class BrainClient final : public Brain {
 public:
  /// `transport` (the tcp kind's SyncTransport policy; must outlive the
  /// client) backs the local inbox channel; `opts` supplies
  /// host/port/connect_timeout_ms.
  BrainClient(bus::Transport& transport, bus::TransportOptions opts,
              net::EndpointOptions endpoint_opts = {});
  ~BrainClient() override;

  /// Dial the daemon (with the socket layer's capped-backoff retry until
  /// connect_timeout_ms), send kFrameHello, and block for kFrameHelloAck.
  /// `domains` must outlive the client; broadcasts apply to their
  /// parameter vectors and Control Agents. False + `*error` on refused
  /// connection, version mismatch, or a daemon that rejected the Hello.
  bool connect(const capture::TraceMeta& meta,
               const std::vector<std::unique_ptr<ControlDomain>>& domains,
               std::string* error);

  // The Brain protocol over the wire. flush_status ships kStatus frames,
  // send_reward a kReward frame, end_tick kFrameTickDone — then blocks
  // for kFrameActionsDone and applies the kBroadcast frames that came
  // first (parameter vector + Control Agents of the owning domain); a
  // broadcast for no domain, or not exactly that domain's parameter
  // vector, is dropped and counted. end_phase blocks for
  // kFramePhaseEndAck, which refreshes the fingerprint and step count.
  // stats() folds the endpoint's shed frames and the rejected broadcasts
  // into `dropped`, so tcp loss surfaces in messages_dropped exactly as
  // sim-transport loss does. The model lives in capes_daemond:
  // save/load_model warn and fail.
  PiChannel& inbox() override { return inbox_; }
  std::size_t flush_status(std::int64_t t) override;
  void send_reward(std::int64_t t, double reward, double throughput_sum,
                   double latency_mean) override;
  TickOutcome end_tick(std::int64_t t, RunPhase mode) override;
  void begin_phase(std::int64_t t, RunPhase phase) override;
  bool end_phase(std::int64_t t, RunPhase phase) override;
  void reset_params(std::int64_t t) override;
  void workload_change(std::int64_t t) override;
  bus::ChannelStats stats() const override;
  std::uint32_t weights_fingerprint() const override { return fingerprint_; }
  std::size_t total_train_steps() const override {
    return total_train_steps_;
  }
  bool save_model(const std::string& path) const override;
  bool load_model(const std::string& path) override;
  void set_capture(capture::WireLogWriter* writer) override {
    capture_ = writer;
  }
  void set_payload_recycler(PayloadRecycler recycler) override;

  /// Polite shutdown: kFrameBye, then close the endpoint. The service
  /// reports a clean session. Idempotent; the destructor calls it.
  void bye(std::int64_t t);

  bool alive() const { return endpoint_ != nullptr && endpoint_->alive(); }

  /// The wire endpoint (null before connect); byte counters feed
  /// bench/ext_net.
  const net::Endpoint* endpoint() const { return endpoint_.get(); }

 private:
  bool send_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, const std::uint8_t* payload,
                  std::size_t payload_size);
  /// Stash one received kBroadcast for end-of-tick application.
  void stash_broadcast(const net::Frame& frame);
  void apply_broadcasts(std::int64_t t);

  bus::TransportOptions opts_;
  net::EndpointOptions endpoint_opts_;
  PiChannel inbox_;
  std::vector<ControlDomain*> domains_;
  std::vector<std::size_t> slice_offsets_;  ///< domains' action offsets
  capture::WireLogWriter* capture_ = nullptr;
  PayloadRecycler payload_recycler_;
  std::unique_ptr<net::Endpoint> endpoint_;

  std::uint32_t fingerprint_ = 0;
  std::size_t total_train_steps_ = 0;
  /// Frames that could not even be queued because the link was already
  /// dead (the endpoint's own counter covers shed-while-alive), plus
  /// rejected broadcasts.
  std::uint64_t dropped_ = 0;

  /// Recycled broadcast stash: slots grow once, values keep capacity.
  struct PendingBroadcast {
    std::size_t domain = 0;
    std::vector<double> values;
  };
  std::vector<PendingBroadcast> stash_;
  std::size_t stash_count_ = 0;
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace capes::core
