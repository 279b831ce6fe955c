// Distributed control-plane bench: per-tick cost of putting the DRL
// brain behind a real TCP socket. Measures training ticks/sec of one
// experiment with the in-process sync transport against the same
// experiment driven over a loopback `tcp:` link to an in-process
// BrainService (the exact capes_daemond session logic, minus the
// process boundary), plus the wire traffic per tick. Zero loss on
// loopback means both runs do identical DRL work — the delta is pure
// framing + socket + lock-step round-trip cost.
//
//   ./build/bench/ext_net [--ticks=N] [--json=FILE]
//
// --json writes a machine-readable summary; tools/run_ext_bench.sh net
// wraps this into BENCH_net.json for CI artifacts.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/brain_service.hpp"
#include "core/remote_brain.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/parse.hpp"

using namespace capes;
using util::parse_flag;

namespace {

struct Sample {
  std::string label;
  double ticks_per_sec = 0.0;
  double bytes_per_tick = 0.0;
  std::uint64_t messages_dropped = 0;
};

/// One accept -> serve session, the capes_daemond inner loop on a thread.
struct LoopbackService {
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::thread thread;

  bool start() {
    std::string error;
    listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd < 0) {
      std::fprintf(stderr, "tcp_listen: %s\n", error.c_str());
      return false;
    }
    port = net::local_port(listen_fd);
    thread = std::thread([fd = listen_fd] {
      std::string err;
      const int conn = net::accept_connection(fd, 10000, &err);
      net::close_socket(fd);
      if (conn < 0) return;
      net::Endpoint endpoint(conn, net::EndpointOptions{});
      core::BrainService service;
      service.serve(endpoint);
      endpoint.close();
    });
    return true;
  }

  void join() {
    if (thread.joinable()) thread.join();
  }
};

Sample measure(bool tcp, std::int64_t ticks) {
  Sample s;
  s.label = tcp ? "tcp loopback" : "sync (default)";

  LoopbackService service;
  if (tcp && !service.start()) std::exit(1);

  auto builder = core::Experiment::builder()
                     .seed(11)
                     .workload(benchutil::random_spec(0.5))
                     .warmup_seconds(2);
  if (tcp) {
    builder.transport("tcp:host=127.0.0.1,port=" + std::to_string(service.port));
  }
  auto experiment = benchutil::build_or_die(std::move(builder));
  // Fill the replay DB far enough that every measured tick runs full
  // minibatch training (the steady-state hot path, not the ramp-up).
  experiment->run_training(
      static_cast<std::int64_t>(
          experiment->preset().capes.replay.ticks_per_observation) +
      40);

  const core::BrainClient* client = experiment->system().brain_client();
  std::uint64_t bytes_before = 0;
  if (client != nullptr && client->endpoint() != nullptr) {
    bytes_before = client->endpoint()->bytes_sent() +
                   client->endpoint()->bytes_received();
  }

  const auto start = std::chrono::steady_clock::now();
  const auto phase = experiment->run_training(ticks);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  s.ticks_per_sec = static_cast<double>(ticks) / elapsed.count();
  s.messages_dropped = phase.result.messages_dropped;
  if (client != nullptr && client->endpoint() != nullptr) {
    const std::uint64_t bytes_after = client->endpoint()->bytes_sent() +
                                      client->endpoint()->bytes_received();
    s.bytes_per_tick = static_cast<double>(bytes_after - bytes_before) /
                       static_cast<double>(ticks);
  }

  experiment.reset();  // Bye -> the service session ends
  service.join();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t ticks = 400;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--ticks", &value)) {
      if (!util::parse_i64(value, &ticks) || ticks <= 0) {
        std::fprintf(stderr, "--ticks must be a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (parse_flag(argv[i], "--json", &value)) {
      json_path = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  benchutil::print_header("distributed control plane overhead (ticks/sec)");
  std::printf("%lld training ticks per point, loopback tcp vs in-process\n\n",
              static_cast<long long>(ticks));
  std::printf("%-16s %14s %12s %14s %10s\n", "transport", "ticks/sec",
              "vs sync", "bytes/tick", "dropped");

  std::vector<Sample> samples;
  double sync_rate = 0.0;
  for (const bool tcp : {false, true}) {
    Sample s = measure(tcp, ticks);
    if (samples.empty()) sync_rate = s.ticks_per_sec;
    std::printf("%-16s %14.1f %11.3fx %14.1f %10llu\n", s.label.c_str(),
                s.ticks_per_sec,
                sync_rate > 0.0 ? s.ticks_per_sec / sync_rate : 0.0,
                s.bytes_per_tick,
                static_cast<unsigned long long>(s.messages_dropped));
    std::fflush(stdout);
    samples.push_back(std::move(s));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"ext_net\",\n"
        << "  \"ticks\": " << ticks << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"transport\": \"%s\", \"ticks_per_sec\": %.2f, "
                    "\"relative_to_sync\": %.4f, \"bytes_per_tick\": %.1f, "
                    "\"messages_dropped\": %llu}%s\n",
                    s.label.c_str(), s.ticks_per_sec,
                    sync_rate > 0.0 ? s.ticks_per_sec / sync_rate : 0.0,
                    s.bytes_per_tick,
                    static_cast<unsigned long long>(s.messages_dropped),
                    i + 1 < samples.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
