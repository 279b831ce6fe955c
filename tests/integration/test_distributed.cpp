// Distributed control-plane integration: a CapesSystem whose DRL brain
// lives behind a loopback `tcp:` link to an in-process BrainService (the
// capes_daemond session logic) must train bit-identically to the
// in-process `sync` path — same weights fingerprint, same per-tick CSVs
// — and captures from the distributed run must replay through the
// standard trace replayer. Also pinned: neither side hangs when the
// other vanishes mid-phase.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/brain_service.hpp"
#include "core/capes_system.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "core/remote_brain.hpp"
#include "core/trace_replay.hpp"
#include "lustre/cluster.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/frame.hpp"
#include "workload/random_rw.hpp"

namespace capes {
namespace {

/// One capes_daemond session on a test thread: listen on an ephemeral
/// loopback port, accept one peer, serve it. kill_link() simulates the
/// daemon dying mid-phase by closing the endpoint under the client.
class ServiceThread {
 public:
  bool start() {
    std::string error;
    listen_fd_ = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd_ < 0) {
      ADD_FAILURE() << "tcp_listen: " << error;
      return false;
    }
    port_ = net::local_port(listen_fd_);
    thread_ = std::thread([this] { run(); });
    return true;
  }

  std::uint16_t port() const { return port_; }

  void kill_link() {
    std::lock_guard<std::mutex> lock(mu_);
    if (endpoint_) endpoint_->close();
  }

  core::BrainServiceReport join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  void run() {
    std::string error;
    const int fd = net::accept_connection(listen_fd_, 10000, &error);
    net::close_socket(listen_fd_);
    if (fd < 0) {
      report_.error = "accept: " + error;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      endpoint_ = std::make_unique<net::Endpoint>(fd, net::EndpointOptions{});
    }
    core::BrainService service;
    report_ = service.serve(*endpoint_);
    std::lock_guard<std::mutex> lock(mu_);
    endpoint_->close();
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mu_;
  std::unique_ptr<net::Endpoint> endpoint_;
  core::BrainServiceReport report_;
  std::thread thread_;
};

core::EvaluationPreset distributed_preset() {
  auto p = core::fast_preset(7);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

struct RunOutcome {
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::string training_csv;
  std::string baseline_csv;
  std::string tuned_csv;
  std::uint64_t messages_dropped = 0;
};

/// The §A.4 workflow against either brain; tcp_port 0 = in-process sync.
RunOutcome run_workflow(std::uint16_t tcp_port,
                        const std::string& capture_path = "") {
  auto preset = distributed_preset();
  if (tcp_port != 0) {
    preset.capes.transport.kind = bus::TransportKind::kTcp;
    preset.capes.transport.tcp_host = "127.0.0.1";
    preset.capes.transport.tcp_port = tcp_port;
  }
  preset.capes.capture_path = capture_path;
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  RunOutcome out;
  const auto training = capes.run_training(80);
  const auto baseline = capes.run_baseline(30);
  const auto tuned = capes.run_tuned(30);
  out.training_csv = core::run_result_csv(training);
  out.baseline_csv = core::run_result_csv(baseline);
  out.tuned_csv = core::run_result_csv(tuned);
  out.messages_dropped = training.messages_dropped +
                         baseline.messages_dropped + tuned.messages_dropped;
  out.fingerprint = capes.training_fingerprint();
  out.train_steps = capes.total_train_steps();
  if (auto* writer = capes.capture_writer()) {
    EXPECT_TRUE(writer->close());
    EXPECT_EQ(writer->records_dropped(), 0u);
  }
  return out;
}

TEST(Distributed, LoopbackTcpMatchesSyncBitExactly) {
  const RunOutcome local = run_workflow(0);
  ASSERT_GT(local.train_steps, 0u);

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port());
  const auto report = service.join();

  ASSERT_TRUE(report.hello_ok) << report.error;
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.decode_errors, 0u);

  // Zero loss on loopback...
  EXPECT_EQ(remote.messages_dropped, 0u);
  // ...means the remote brain is a transparent extension: identical
  // weights, identical step count, identical per-tick phase CSVs.
  EXPECT_EQ(remote.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.train_steps, local.train_steps);
  EXPECT_EQ(report.fingerprint, local.fingerprint);
  EXPECT_EQ(report.train_steps, local.train_steps);
  EXPECT_EQ(remote.training_csv, local.training_csv);
  EXPECT_EQ(remote.baseline_csv, local.baseline_csv);
  EXPECT_EQ(remote.tuned_csv, local.tuned_csv);
}

TEST(Distributed, CaptureFromDistributedRunReplaysIdentically) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("capes_dist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dist.cap").string();

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port(), path);
  service.join();
  ASSERT_GT(remote.train_steps, 0u);

  // The capture was written agent-side, from wire traffic — and still
  // replays through the standard single-process replayer, reproducing
  // the daemon's weights exactly.
  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  std::string error;
  ASSERT_TRUE(replayer.open(path, opts, &error)) << error;
  const auto report = replayer.run();
  EXPECT_EQ(report.decode_errors, 0u);
  EXPECT_EQ(report.action_mismatches, 0u);
  EXPECT_EQ(report.total_train_steps, remote.train_steps);
  EXPECT_EQ(report.weights_fingerprint, remote.fingerprint);
  std::filesystem::remove_all(dir);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Three clusters under one brain (random, fileserver and seqwrite
/// domains, seed 3), recording a capture; tcp_port 0 = in-process sync.
RunOutcome run_three_domains(std::uint16_t tcp_port,
                             const std::string& capture_path,
                             std::string* capture_bytes) {
  auto builder = core::Experiment::builder()
                     .workload("random:0.2")
                     .add_cluster("fileserver")
                     .add_cluster("seqwrite")
                     .seed(3)
                     .train_ticks(60)
                     .eval_ticks(30)
                     .capture(capture_path);
  if (tcp_port != 0) {
    builder.transport("tcp:host=127.0.0.1,port=" + std::to_string(tcp_port));
  }
  std::string error;
  auto exp = builder.build(&error);
  RunOutcome out;
  if (exp == nullptr) {
    ADD_FAILURE() << error;
    return out;
  }
  const auto training = exp->run_training();
  const auto baseline = exp->run_baseline();
  const auto tuned = exp->run_tuned();
  out.training_csv = core::run_result_csv(training.result);
  out.baseline_csv = core::run_result_csv(baseline.result);
  out.tuned_csv = core::run_result_csv(tuned.result);
  out.messages_dropped = training.result.messages_dropped +
                         baseline.result.messages_dropped +
                         tuned.result.messages_dropped;
  out.fingerprint = exp->system().training_fingerprint();
  out.train_steps = exp->system().total_train_steps();
  EXPECT_TRUE(exp->system().capture_writer()->close());
  *capture_bytes = read_bytes(capture_path);
  return out;
}

TEST(Distributed, ThreeDomainTcpMatchesSyncIncludingCapture) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("capes_dist3_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string local_capture;
  const RunOutcome local =
      run_three_domains(0, (dir / "sync.cap").string(), &local_capture);
  ASSERT_GT(local.train_steps, 0u);

  ServiceThread service;
  ASSERT_TRUE(service.start());
  std::string remote_capture;
  const RunOutcome remote = run_three_domains(
      service.port(), (dir / "tcp.cap").string(), &remote_capture);
  const auto report = service.join();
  std::filesystem::remove_all(dir);

  ASSERT_TRUE(report.hello_ok) << report.error;
  EXPECT_EQ(report.num_domains, 3u);
  EXPECT_GT(report.actions_broadcast, 0u);
  EXPECT_EQ(remote.messages_dropped, 0u);
  // Actions routed across three slices on the daemon side reach the
  // right domains: same weights, same steps, same per-tick phases, and a
  // byte-identical agent-side capture.
  EXPECT_EQ(remote.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.train_steps, local.train_steps);
  EXPECT_EQ(remote.training_csv, local.training_csv);
  EXPECT_EQ(remote.baseline_csv, local.baseline_csv);
  EXPECT_EQ(remote.tuned_csv, local.tuned_csv);
  ASSERT_FALSE(local_capture.empty());
  EXPECT_TRUE(remote_capture == local_capture)
      << "captures differ: " << remote_capture.size() << " vs "
      << local_capture.size() << " bytes";
}

/// A scripted capes_daemond: acks the Hello, answers every tick barrier
/// with `broadcast` as domain 0's kBroadcast payload followed by an
/// all-zero kFrameActionsDone, acks phase ends, and stops at Bye.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::vector<std::uint8_t> broadcast)
      : broadcast_(std::move(broadcast)) {}

  bool start() {
    std::string error;
    listen_fd_ = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd_ < 0) {
      ADD_FAILURE() << "tcp_listen: " << error;
      return false;
    }
    port_ = net::local_port(listen_fd_);
    thread_ = std::thread([this] { run(); });
    return true;
  }

  std::uint16_t port() const { return port_; }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    std::string error;
    const int fd = net::accept_connection(listen_fd_, 10000, &error);
    net::close_socket(listen_fd_);
    if (fd < 0) return;
    net::Endpoint endpoint(fd, net::EndpointOptions{});
    for (;;) {
      net::InSlot* slot = endpoint.recv();
      if (slot == nullptr) break;
      const std::uint8_t type = slot->frame.type;
      const std::int64_t tick = slot->frame.tick;
      endpoint.recycle(slot);
      if (type == core::kFrameHello) {
        std::uint8_t ack[8] = {};
        util::put_le32(ack, core::kWireProtoVersion);
        endpoint.send(core::kFrameHelloAck, 0, 0, 0, ack, sizeof(ack));
      } else if (type == core::kFrameTickDone) {
        endpoint.send(core::frame_type(capture::RecordType::kBroadcast), tick,
                      core::kActionTopicBase, 0, broadcast_.data(),
                      broadcast_.size());
        const std::uint8_t done[20] = {};
        endpoint.send(core::kFrameActionsDone, tick, 0, 0, done, sizeof(done));
      } else if (type == core::frame_type(capture::RecordType::kPhaseEnd)) {
        const std::uint8_t ack[12] = {};
        endpoint.send(core::kFramePhaseEndAck, tick, 0, 0, ack, sizeof(ack));
      } else if (type == core::kFrameBye) {
        break;
      }
    }
    endpoint.close();
  }

  std::vector<std::uint8_t> broadcast_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(Distributed, ShortBroadcastIsDroppedAndCounted) {
  // One value where the cluster tunes two parameters: applied, it would
  // shrink the domain's vector and the cluster's setter would read past
  // its end.
  std::vector<std::uint8_t> short_broadcast(8);
  util::put_le_f64(short_broadcast.data(), 1.0);
  FakeDaemon daemon(short_broadcast);
  ASSERT_TRUE(daemon.start());
  {
    auto preset = distributed_preset();
    preset.capes.transport.kind = bus::TransportKind::kTcp;
    preset.capes.transport.tcp_host = "127.0.0.1";
    preset.capes.transport.tcp_port = daemon.port();
    sim::Simulator sim;
    lustre::Cluster cluster(sim, preset.cluster);
    core::CapesSystem capes(sim, cluster, preset.capes);
    const std::vector<double> before = capes.parameter_values();
    ASSERT_EQ(before.size(), 2u);

    const auto result = capes.run_training(3);
    EXPECT_EQ(capes.parameter_values(), before);
    EXPECT_GE(result.messages_dropped, 1u);
    EXPECT_GE(capes.brain_client()->stats().dropped, 1u);
  }
  daemon.join();
}

TEST(Distributed, HelloWithNonContiguousSlicesIsRejected) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = net::local_port(listen_fd);
  const int client_fd = net::tcp_connect("127.0.0.1", port, 5000, &error);
  ASSERT_GE(client_fd, 0) << error;
  const int server_fd = net::accept_connection(listen_fd, 5000, &error);
  ASSERT_GE(server_fd, 0) << error;
  net::close_socket(listen_fd);

  // Two 2-parameter domains: 1 + 4 + 4 = 9 actions, as the meta says,
  // but the second slice claims to start at 9 instead of 5.
  core::HelloPayload hello;
  hello.meta.num_nodes = 2;
  hello.meta.pis_per_node = 4;
  hello.meta.num_actions = 9;
  const std::vector<rl::TunableParameter> params = {
      {"a", 0.0, 10.0, 1.0, 5.0}, {"b", 0.0, 10.0, 1.0, 5.0}};
  hello.domains = {{1, params}, {9, params}};
  const std::vector<std::uint8_t> blob = core::encode_hello(hello);

  {
    // Send, then hang up (the close lingers until the Hello is flushed):
    // serve() must end at the Hello either way, never wait for a tick.
    net::Endpoint client(client_fd, net::EndpointOptions{});
    ASSERT_TRUE(
        client.send(core::kFrameHello, 0, 0, 0, blob.data(), blob.size()));
    client.close();
  }
  net::Endpoint server(server_fd, net::EndpointOptions{});
  core::BrainService service;
  const auto report = service.serve(server);
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.error.empty());
  EXPECT_EQ(report.ticks, 0);
  server.close();
}

TEST(Distributed, HelloWithForgedCountsIsRejected) {
  core::HelloPayload hello;
  hello.meta.num_nodes = 1;
  hello.meta.pis_per_node = 4;
  hello.meta.num_actions = 3;
  hello.domains = {{1, {{"a", 0.0, 10.0, 1.0, 5.0}}}};
  const std::vector<std::uint8_t> blob = core::encode_hello(hello);
  ASSERT_TRUE(core::decode_hello(blob).has_value());
  // version, meta length, meta, then the domain count; the first domain
  // is its u64 action offset, then its parameter count.
  const std::size_t domains_at = 8 + util::get_le32(blob.data() + 4);
  for (const std::size_t at : {domains_at, domains_at + 4 + 8}) {
    std::vector<std::uint8_t> forged = blob;
    util::put_le32(forged.data() + at, 0xFFFFFFFFu);
    EXPECT_FALSE(core::decode_hello(forged).has_value()) << "count at " << at;
  }
}

TEST(Distributed, DaemonDeathMidPhaseDoesNotHangTheAgent) {
  ServiceThread service;
  ASSERT_TRUE(service.start());

  auto preset = distributed_preset();
  preset.capes.transport.kind = bus::TransportKind::kTcp;
  preset.capes.transport.tcp_host = "127.0.0.1";
  preset.capes.transport.tcp_port = service.port();
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  const auto before = capes.run_training(30);
  EXPECT_EQ(before.messages_dropped, 0u);
  ASSERT_NE(capes.brain_client(), nullptr);
  EXPECT_TRUE(capes.brain_client()->alive());

  // The daemon dies between ticks; the agent must finish the phase
  // offline — no actions, loss counted, no hang (enforced by the test
  // timeout) — rather than block in a dead recv().
  service.kill_link();
  const auto after = capes.run_training(30);
  EXPECT_GT(after.messages_dropped, 0u);
  EXPECT_FALSE(capes.brain_client()->alive());
  // No brain means no actions and no training happened after the death.
  EXPECT_EQ(after.train_steps, 0u);
  service.join();
}

TEST(Distributed, AgentVanishingEndsServeWithoutCleanShutdown) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = net::local_port(listen_fd);
  const int client_fd = net::tcp_connect("127.0.0.1", port, 5000, &error);
  ASSERT_GE(client_fd, 0) << error;
  const int server_fd = net::accept_connection(listen_fd, 5000, &error);
  ASSERT_GE(server_fd, 0) << error;
  net::close_socket(listen_fd);

  net::Endpoint server(server_fd, net::EndpointOptions{});
  // The "agent" connects and dies without so much as a Hello. serve()
  // must return promptly (EOF), not wait for a Bye that never comes.
  std::thread killer([client_fd] {
    net::Endpoint client(client_fd, net::EndpointOptions{});
    client.close();
  });
  core::BrainService service;
  const auto report = service.serve(server);
  killer.join();
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.ticks, 0);
  server.close();
}

}  // namespace
}  // namespace capes
