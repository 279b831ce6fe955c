#include "core/brain_service.hpp"

#include <memory>
#include <vector>

#include "core/brain.hpp"
#include "core/remote_brain.hpp"
#include "rl/action_space.hpp"
#include "util/frame.hpp"
#include "util/logging.hpp"

namespace capes::core {

namespace {

/// One session: the LocalBrain the Hello describes, its shards checking
/// against parameter mirrors of the agent-side domains. Both sides apply
/// the same broadcasts, so each mirror tracks its domain's vector exactly.
struct Session {
  std::vector<rl::ActionSpace> spaces;
  std::vector<std::vector<double>> mirrors;
  std::unique_ptr<LocalBrain> brain;
  std::vector<std::uint8_t> broadcast_scratch;
};

std::unique_ptr<Session> build_session(const HelloPayload& hello,
                                       std::string* error) {
  const capture::TraceMeta& meta = hello.meta;
  if (meta.num_nodes == 0 || meta.pis_per_node == 0 || meta.num_actions == 0 ||
      hello.domains.empty()) {
    *error = "Hello describes an empty topology";
    return nullptr;
  }
  // The daemon routes by the contiguous layout CapesSystem builds: domain
  // d's slice starts right after domain d-1's 2·p actions.
  std::size_t offset = 1;
  for (std::size_t d = 0; d < hello.domains.size(); ++d) {
    if (hello.domains[d].action_offset != offset) {
      *error = "Hello domain " + std::to_string(d) + " slice starts at " +
               std::to_string(hello.domains[d].action_offset) +
               ", expected " + std::to_string(offset);
      return nullptr;
    }
    offset += 2 * hello.domains[d].params.size();
  }
  if (offset != meta.num_actions) {
    *error = "Hello action-space layout disagrees with its meta";
    return nullptr;
  }

  auto session = std::make_unique<Session>();
  // Reserved up front: the shards point into both vectors.
  session->spaces.reserve(hello.domains.size());
  session->mirrors.reserve(hello.domains.size());
  std::vector<DaemonShard> shards;
  for (const RemoteDomain& d : hello.domains) {
    const rl::ActionSpace& space = session->spaces.emplace_back(d.params);
    shards.push_back({&space, static_cast<std::size_t>(d.action_offset),
                      &session->mirrors.emplace_back(space.initial_values())});
  }
  session->brain = std::make_unique<LocalBrain>(brain_options_from_meta(meta),
                                                std::move(shards));
  return session;
}

/// One tick barrier: the LocalBrain step, the checked broadcast (if any
/// action applied), and kFrameActionsDone.
void handle_tick_done(Session& session, net::Endpoint& endpoint,
                      std::int64_t t, RunPhase mode,
                      BrainServiceReport& report) {
  const TickOutcome outcome = session.brain->end_tick(t, mode);
  if (outcome.recorded != 0) {
    const std::size_t shard = session.brain->daemon().shard_of(outcome.recorded);
    const std::vector<double>& params = session.mirrors[shard];
    session.broadcast_scratch.resize(params.size() * 8);
    for (std::size_t i = 0; i < params.size(); ++i) {
      util::put_le_f64(session.broadcast_scratch.data() + 8 * i, params[i]);
    }
    endpoint.send(frame_type(capture::RecordType::kBroadcast), t,
                  kActionTopicBase + shard, shard,
                  session.broadcast_scratch.data(),
                  session.broadcast_scratch.size());
    ++report.actions_broadcast;
  } else if (outcome.suggested != 0) {
    ++report.actions_vetoed;
  }
  report.train_steps += outcome.train_steps;

  std::uint8_t done[20];
  util::put_le32(done, static_cast<std::uint32_t>(outcome.suggested));
  util::put_le32(done + 4, static_cast<std::uint32_t>(outcome.recorded));
  util::put_le32(done + 8, static_cast<std::uint32_t>(outcome.train_steps));
  util::put_le64(done + 12,
                 static_cast<std::uint64_t>(outcome.total_train_steps));
  endpoint.send(kFrameActionsDone, t, 0, 0, done, sizeof(done));
}

}  // namespace

BrainServiceReport BrainService::serve(net::Endpoint& endpoint) {
  BrainServiceReport report;
  std::unique_ptr<Session> session;
  bool stop = false;
  while (!stop) {
    net::InSlot* slot = endpoint.recv();
    if (slot == nullptr) break;  // EOF / error / idle timeout: client gone
    const net::Frame& frame = slot->frame;
    switch (frame.type) {
      case kFrameHello: {
        const auto hello = decode_hello(frame.payload);
        if (!hello) {
          report.error = "undecodable Hello (protocol-version mismatch?)";
          stop = true;
          break;
        }
        std::string error;
        session = build_session(*hello, &error);
        if (session == nullptr) {
          report.error = error;
          stop = true;
          break;
        }
        report.hello_ok = true;
        report.num_domains = session->mirrors.size();
        std::uint8_t ack[8];
        util::put_le32(ack, kWireProtoVersion);
        util::put_le32(ack + 4, session->brain->weights_fingerprint());
        endpoint.send(kFrameHelloAck, 0, 0, 0, ack, sizeof(ack));
        break;
      }
      case kFrameTickDone:
        if (session != nullptr && !frame.payload.empty()) {
          handle_tick_done(*session, endpoint, frame.tick,
                           static_cast<RunPhase>(frame.payload[0]), report);
          ++report.ticks;
        }
        break;
      case kFrameParamsReset:
        if (session != nullptr) session->brain->reset_params(frame.tick);
        break;
      case kFrameBye:
        report.clean_shutdown = true;
        stop = true;
        break;
      default:
        if (frame.type == frame_type(capture::RecordType::kStatus)) {
          if (session != nullptr) {
            ++report.status_records;
            session->brain->daemon().on_status_message(frame.payload);
          }
        } else if (frame.type == frame_type(capture::RecordType::kReward)) {
          if (session != nullptr && frame.payload.size() >= 8) {
            ++report.reward_records;
            session->brain->daemon().on_reward(
                frame.tick, util::get_le_f64(frame.payload.data()));
          }
        } else if (frame.type ==
                   frame_type(capture::RecordType::kWorkloadChange)) {
          if (session != nullptr) session->brain->workload_change(frame.tick);
        } else if (frame.type == frame_type(capture::RecordType::kPhaseEnd)) {
          if (session != nullptr) {
            // The learner barrier: everything the phase trained is
            // visible in the fingerprint the ack carries.
            session->brain->end_phase(
                frame.tick, frame.payload.empty()
                                ? RunPhase::kIdle
                                : static_cast<RunPhase>(frame.payload[0]));
            std::uint8_t ack[12];
            util::put_le32(ack, session->brain->weights_fingerprint());
            util::put_le64(ack + 4, static_cast<std::uint64_t>(
                                        session->brain->total_train_steps()));
            endpoint.send(kFramePhaseEndAck, frame.tick, 0, 0, ack,
                          sizeof(ack));
          }
        }
        // kPhaseBegin and unknown types: no service-side state to touch.
        break;
    }
    endpoint.recycle(slot);
  }
  if (session != nullptr) {
    report.fingerprint = session->brain->weights_fingerprint();
    report.decode_errors = session->brain->daemon().decode_errors();
  }
  if (!report.error.empty()) {
    CAPES_LOG_WARN("braind") << "session aborted: " << report.error;
  }
  return report;
}

}  // namespace capes::core
