#include "bus/transport.hpp"

#include <cmath>

namespace capes::bus {

Transport::~Transport() = default;

Delivery SyncTransport::plan(std::uint64_t, std::uint64_t,
                             std::int64_t send_tick) const {
  return {false, send_tick};
}

SimTransport::SimTransport(const TransportOptions& opts) : opts_(opts) {}

namespace {

/// splitmix64 finalizer: the per-message fate hash. Statistically strong
/// enough for a drop/jitter model and, unlike a shared RNG stream,
/// order-independent: the fate of (topic, sender, tick) never depends on
/// which other messages were planned before it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Map a 64-bit hash to a uniform double in [0, 1).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Delivery SimTransport::plan(std::uint64_t topic, std::uint64_t sender,
                            std::int64_t send_tick) const {
  // Two independent draws from one message key: advance the key through
  // the mixer once per draw (counter mode).
  std::uint64_t key = opts_.seed;
  key = mix64(key ^ mix64(topic ^ 0x746f706963ULL));
  key = mix64(key ^ mix64(sender ^ 0x73656e646572ULL));
  key = mix64(key ^ static_cast<std::uint64_t>(send_tick));

  const std::uint64_t drop_draw = mix64(key);
  if (opts_.drop > 0.0 && to_unit(drop_draw) < opts_.drop) {
    return {true, send_tick};
  }
  std::int64_t delay = opts_.latency_ticks;
  if (opts_.jitter > 0.0) {
    const std::uint64_t jitter_draw = mix64(key ^ 0x6a69747465ULL);
    delay += static_cast<std::int64_t>(
        std::floor(to_unit(jitter_draw) * opts_.jitter));
  }
  return {false, send_tick + delay};
}

FaultingTransport::FaultingTransport(std::unique_ptr<Transport> inner,
                                     DropFn drop)
    : inner_(std::move(inner)), drop_(std::move(drop)) {}

Delivery FaultingTransport::plan(std::uint64_t topic, std::uint64_t sender,
                                 std::int64_t send_tick) const {
  Delivery delivery = inner_->plan(topic, sender, send_tick);
  if (!delivery.dropped && drop_ && drop_(topic, sender, send_tick)) {
    delivery.dropped = true;
  }
  return delivery;
}

std::unique_ptr<Transport> make_transport(const TransportOptions& opts) {
  if (opts.kind == TransportKind::kSim) {
    return std::make_unique<SimTransport>(opts);
  }
  // tcp is a reliable FIFO per peer: locally it plans like sync.
  return std::make_unique<SyncTransport>();
}

namespace {

/// The option rows of a scheme (sync has none).
std::span<const util::Option<TransportOptions>> transport_options(
    TransportKind kind) {
  if (kind == TransportKind::kSim) return kSimTransportOptions;
  if (kind == TransportKind::kTcp) return kTcpTransportOptions;
  return {};
}

}  // namespace

bool parse_transport_spec(std::string_view spec, TransportOptions* out,
                          std::string* error) {
  const std::size_t colon = spec.find(':');
  const std::string_view scheme = spec.substr(0, colon);
  const auto kind = util::find_name(kTransportNames, scheme);
  if (!kind) {
    return util::reject(error, "unknown transport '" + std::string(scheme) +
                                   "' (expected " +
                                   util::join_names(kTransportNames) + ")");
  }
  TransportOptions parsed;
  parsed.kind = static_cast<TransportKind>(*kind);
  if (parsed.kind == TransportKind::kSync) {
    if (colon != std::string_view::npos) {
      return util::reject(error, "transport 'sync' takes no options");
    }
  } else if (!util::parse_options(
                 transport_options(parsed.kind),
                 colon == std::string_view::npos ? std::string_view{}
                                                 : spec.substr(colon + 1),
                 parsed.kind == TransportKind::kTcp ? "tcp transport option"
                                                    : "transport option",
                 &parsed, error)) {
    return false;
  }
  // host and port (rows 0 and 1) have no usable defaults: a tcp spec
  // names both.
  if (parsed.kind == TransportKind::kTcp &&
      (parsed.tcp_host.empty() || parsed.tcp_port == 0)) {
    const auto& missing = kTcpTransportOptions[parsed.tcp_host.empty() ? 0 : 1];
    return util::reject(error, "tcp transport requires " +
                                   std::string(missing.key) + "=.. in '" +
                                   std::string(spec) + "'");
  }
  *out = parsed;
  return true;
}

std::string transport_spec_string(const TransportOptions& opts) {
  std::string spec(kTransportNames[static_cast<std::size_t>(opts.kind)]);
  if (opts.kind == TransportKind::kSync) return spec;
  return spec + ':' + util::format_options(transport_options(opts.kind), opts);
}

}  // namespace capes::bus
