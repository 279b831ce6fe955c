// capes_daemond — the standalone Interface Daemon + DRL Engine process
// of the distributed control plane (§3.3's deployment: Monitoring Agents
// feed a central daemon that hosts the Replay DB and the DRL brain).
//
// The daemon listens on a TCP endpoint, accepts one agent connection
// (capes_run --transport=tcp:host=H,port=N), and runs a
// core::BrainService session over it: the entire run topology (workload
// meta, per-domain action spaces) arrives in the client's Hello, exactly
// the way a capture file's header rebuilds a run in capes_replay — the
// daemon needs no workload flags of its own.
// With --port=0 the kernel picks an ephemeral port and the daemon prints
// it on stdout (flushed before accepting), so scripts can launch the
// pair without coordinating port numbers.

#include <cstdio>
#include <string>

#include "core/brain_service.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/options.hpp"

using namespace capes;

namespace {

struct Args {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, the daemon prints the real port.
  std::int64_t port = 4890;
  /// How long to wait for the agent to connect (-1 = forever).
  std::int64_t accept_timeout_ms = 30000;
  /// Declare a silent peer dead after this long (heartbeats keep a
  /// healthy but idle link well under it).
  std::int64_t idle_timeout_ms = 30000;
  bool help = false;
};

constexpr util::Option<Args> kFlags[] = {
    {.key = "--host", .field = CAPES_FIELD(host), .form = "ADDR"},
    {"--port", CAPES_FIELD(port), {.lo = 0, .hi = 65535}},
    {"--accept-timeout-ms", CAPES_FIELD(accept_timeout_ms)},
    {"--idle-timeout-ms", CAPES_FIELD(idle_timeout_ms), util::at_least(0)},
    {"--help", CAPES_FIELD(help)},
};

void print_usage() {
  std::printf(
      "%s\n"
      "Hosts the Interface Daemon + DRL Engine half of a distributed CAPES\n"
      "run: listens on --host:--port (default 127.0.0.1:4890), accepts one\n"
      "agent connection (capes_run --transport=tcp:host=H,port=N), and\n"
      "serves its training session — the run topology arrives in the\n"
      "agent's handshake, so the daemon needs no workload configuration of\n"
      "its own. --port=0 lets the kernel pick an ephemeral port; the daemon\n"
      "prints 'listening on HOST:PORT' (flushed) before accepting, so\n"
      "scripts can read the port back. The process exits after the\n"
      "session: 0 on a clean agent Bye or link death (loss is the agent's\n"
      "to report), 1 on a setup or protocol error.\n"
      "--accept-timeout-ms bounds the wait for the agent (-1 = forever);\n"
      "--idle-timeout-ms declares a silent peer dead (0 = never).\n"
      "See docs/CONFIG.md for the distributed-run reference.\n",
      util::flag_usage<Args>(kFlags, "capes_daemond").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!util::parse_flags(kFlags, argc, argv, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    print_usage();
    return 2;
  }
  if (args.help) {
    print_usage();
    return 0;
  }

  const int listen_fd = net::tcp_listen(
      args.host, static_cast<std::uint16_t>(args.port), &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }
  const std::uint16_t port = net::local_port(listen_fd);
  // Flush before blocking in accept: launcher scripts parse this line to
  // learn an ephemeral port.
  std::printf("capes_daemond listening on %s:%u\n", args.host.c_str(),
              static_cast<unsigned>(port));
  std::fflush(stdout);

  const int conn_fd =
      net::accept_connection(listen_fd, args.accept_timeout_ms, &error);
  net::close_socket(listen_fd);
  if (conn_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }

  net::EndpointOptions ep_opts;
  ep_opts.idle_timeout_ms = args.idle_timeout_ms;
  net::Endpoint endpoint(conn_fd, ep_opts);

  core::BrainService service;
  const auto report = service.serve(endpoint);
  endpoint.close();

  if (!report.hello_ok) {
    std::fprintf(stderr, "capes_daemond: session failed before handshake%s%s\n",
                 report.error.empty() ? "" : ": ",
                 report.error.c_str());
    return 1;
  }
  std::printf("session: %lld ticks, %zu domains, %llu status / %llu reward "
              "records, %llu actions broadcast, %llu vetoed\n",
              static_cast<long long>(report.ticks), report.num_domains,
              static_cast<unsigned long long>(report.status_records),
              static_cast<unsigned long long>(report.reward_records),
              static_cast<unsigned long long>(report.actions_broadcast),
              static_cast<unsigned long long>(report.actions_vetoed));
  if (report.decode_errors > 0) {
    std::printf("  %llu malformed PI payloads dropped\n",
                static_cast<unsigned long long>(report.decode_errors));
  }
  std::printf("shutdown: %s\n",
              report.clean_shutdown ? "clean (agent Bye)" : "link death");
  // The same determinism handle capes_run prints: CI compares this line
  // against the in-process run's.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              report.fingerprint, report.train_steps);
  if (!report.error.empty()) {
    std::fprintf(stderr, "capes_daemond: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}
