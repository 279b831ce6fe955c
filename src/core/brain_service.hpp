#pragma once
// The daemon-side half of the distributed control plane: one BrainService
// session hosts a LocalBrain (Replay DB + Interface Daemon + DRL Engine)
// for one connected agent (capes_run --transport=tcp:) and speaks the
// remote_brain protocol over a net::Endpoint.
//
// The brain is built from the client's Hello — the same TraceMeta
// snapshot a capture file leads with, plus the per-domain action-space
// layout — through the same from-meta path TraceReplayer uses, with one
// shard per domain checking against a parameter mirror. Every tick the
// service ingests the client's status and reward frames in FIFO order,
// then on kFrameTickDone runs the LocalBrain tick step the in-process
// system runs and streams the checked broadcast back. A loopback session
// with zero loss therefore trains the engine to a weights fingerprint
// bit-identical to the `sync` transport's.
//
// Lifecycle: serve() returns when the client says Bye (clean_shutdown),
// when the link dies (EOF / error / idle timeout — a killed agent never
// hangs the daemon), or on a protocol error. One endpoint, one session:
// capes_daemond accepts, serves, reports.

#include <cstdint>
#include <string>

#include "net/endpoint.hpp"

namespace capes::core {

struct BrainServiceReport {
  bool hello_ok = false;        ///< handshake completed
  bool clean_shutdown = false;  ///< client said Bye (vs. link death)
  std::int64_t ticks = 0;       ///< kFrameTickDone barriers served
  std::size_t num_domains = 0;
  std::uint64_t status_records = 0;
  std::uint64_t reward_records = 0;
  std::uint64_t decode_errors = 0;      ///< malformed PI payloads
  std::uint64_t actions_broadcast = 0;  ///< checked actions that applied
  std::uint64_t actions_vetoed = 0;     ///< checker rejections -> NULL
  std::size_t train_steps = 0;          ///< minibatch steps run
  std::uint32_t fingerprint = 0;        ///< final online-weights CRC32
  std::string error;                    ///< non-empty on protocol failure
};

class BrainService {
 public:
  /// Serve one session on a connected endpoint until Bye, link death, or
  /// a protocol error. Blocking; run it on the accept thread (or a test
  /// thread). The endpoint outlives the call.
  BrainServiceReport serve(net::Endpoint& endpoint);
};

}  // namespace capes::core
