// net::Endpoint over a real loopback socket pair: FIFO delivery, EOF
// wake-up, non-blocking shed on overflow, and heartbeat filtering.

#include "net/endpoint.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace capes::net {
namespace {

struct Loopback {
  std::unique_ptr<Endpoint> client;    ///< the connect() side
  std::unique_ptr<Endpoint> accepted;  ///< the accept() side
};

Loopback make_loopback(EndpointOptions client_opts = {},
                       EndpointOptions accepted_opts = {}) {
  std::string error;
  const int listen_fd = tcp_listen("127.0.0.1", 0, &error);
  EXPECT_GE(listen_fd, 0) << error;
  const std::uint16_t port = local_port(listen_fd);
  EXPECT_NE(port, 0);
  const int client_fd = tcp_connect("127.0.0.1", port, 5000, &error);
  EXPECT_GE(client_fd, 0) << error;
  const int accepted_fd = accept_connection(listen_fd, 5000, &error);
  EXPECT_GE(accepted_fd, 0) << error;
  close_socket(listen_fd);
  Loopback pair;
  pair.client = std::make_unique<Endpoint>(client_fd, client_opts);
  pair.accepted = std::make_unique<Endpoint>(accepted_fd, accepted_opts);
  return pair;
}

TEST(Endpoint, DeliversFramesInFifoOrder) {
  Loopback pair = make_loopback();
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    const std::uint8_t payload[4] = {static_cast<std::uint8_t>(i),
                                     static_cast<std::uint8_t>(i >> 8), 0, 7};
    ASSERT_TRUE(pair.client->send(3, i, 42, 9, payload, sizeof(payload)));
  }
  for (int i = 0; i < kFrames; ++i) {
    InSlot* slot = pair.accepted->recv();
    ASSERT_NE(slot, nullptr) << "link died after " << i << " frames";
    EXPECT_EQ(slot->frame.type, 3);
    EXPECT_EQ(slot->frame.tick, i);
    EXPECT_EQ(slot->frame.topic, 42u);
    EXPECT_EQ(slot->frame.sender, 9u);
    ASSERT_EQ(slot->frame.payload.size(), 4u);
    EXPECT_EQ(slot->frame.payload[0], static_cast<std::uint8_t>(i));
    pair.accepted->recycle(slot);
  }
  EXPECT_TRUE(pair.client->alive());
  EXPECT_TRUE(pair.accepted->alive());
  EXPECT_EQ(pair.client->send_dropped(), 0u);
}

TEST(Endpoint, RoundTripsBothDirections) {
  Loopback pair = make_loopback();
  const std::uint8_t ping[] = {1, 2, 3};
  ASSERT_TRUE(pair.client->send(16, 1, 0, 0, ping, sizeof(ping)));
  InSlot* slot = pair.accepted->recv();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->frame.type, 16);
  pair.accepted->recycle(slot);

  const std::uint8_t pong[] = {4, 5};
  ASSERT_TRUE(pair.accepted->send(17, 2, 0, 0, pong, sizeof(pong)));
  slot = pair.client->recv();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->frame.type, 17);
  ASSERT_EQ(slot->frame.payload.size(), 2u);
  EXPECT_EQ(slot->frame.payload[1], 5);
  pair.client->recycle(slot);
}

TEST(Endpoint, LargePayloadSurvivesTheRing) {
  Loopback pair = make_loopback();
  std::vector<std::uint8_t> big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  ASSERT_TRUE(pair.client->send(4, 7, 2, 1, big.data(), big.size()));
  InSlot* slot = pair.accepted->recv();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->frame.payload, big);
  pair.accepted->recycle(slot);
}

TEST(Endpoint, PeerCloseDrainsThenWakesRecvWithNull) {
  Loopback pair = make_loopback();
  const std::uint8_t payload[] = {9};
  ASSERT_TRUE(pair.client->send(1, 1, 0, 0, payload, sizeof(payload)));
  // The frame must be readable before the close lands (the endpoint
  // lingers to flush on clean close, so this is deterministic).
  InSlot* slot = pair.accepted->recv();
  ASSERT_NE(slot, nullptr);
  pair.accepted->recycle(slot);

  pair.client->close();
  // EOF: the blocked recv() must wake with nullptr, not hang.
  EXPECT_EQ(pair.accepted->recv(), nullptr);
  EXPECT_FALSE(pair.accepted->alive());
}

TEST(Endpoint, QueuedFramesFlushBeforeCleanClose) {
  Loopback pair = make_loopback();
  constexpr int kFrames = 50;
  const std::uint8_t payload[] = {1, 2, 3, 4};
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pair.client->send(1, i, 0, 0, payload, sizeof(payload)));
  }
  pair.client->close();  // the linger flush must get all 50 out
  int received = 0;
  while (InSlot* slot = pair.accepted->recv()) {
    EXPECT_EQ(slot->frame.tick, received);
    ++received;
    pair.accepted->recycle(slot);
  }
  EXPECT_EQ(received, kFrames);
}

TEST(Endpoint, OversizedPayloadIsShedAndTheLinkSurvives) {
  Loopback pair = make_loopback();
  // A frame above the bound would make the peer's parser declare the
  // stream corrupt; the sender sheds it instead.
  const std::vector<std::uint8_t> big(kMaxFramePayload + 1, 0xab);
  EXPECT_FALSE(pair.client->send(3, 0, 0, 0, big.data(), big.size()));
  EXPECT_EQ(pair.client->send_dropped(), 1u);
  const std::uint8_t b = 7;
  ASSERT_TRUE(pair.client->send(3, 1, 0, 0, &b, 1));
  InSlot* slot = pair.accepted->recv();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->frame.tick, 1);
  pair.accepted->recycle(slot);
  EXPECT_TRUE(pair.accepted->alive());
  EXPECT_TRUE(pair.client->alive());
}

TEST(Endpoint, SendAfterCloseShedsInsteadOfBlocking) {
  Loopback pair = make_loopback();
  pair.client->close();
  const std::uint8_t payload[] = {1};
  EXPECT_FALSE(pair.client->send(1, 0, 0, 0, payload, sizeof(payload)));
  EXPECT_GE(pair.client->send_dropped(), 1u);
}

TEST(Endpoint, SlowPeerShedsAtTheSenderNotTheControlThread) {
  // A tiny outbound ring against a peer that never consumes: once the
  // socket and the peer's inbound ring are full, send() must shed and
  // count, never block the control thread.
  EndpointOptions small;
  small.ring_capacity = 8;
  EndpointOptions stalled;
  stalled.ring_capacity = 2;
  Loopback pair = make_loopback(small, stalled);

  std::vector<std::uint8_t> chunk(256u << 10, 0xAB);
  bool shed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!shed && std::chrono::steady_clock::now() < deadline) {
    if (!pair.client->send(2, 0, 0, 0, chunk.data(), chunk.size())) {
      shed = true;
    }
  }
  EXPECT_TRUE(shed);
  EXPECT_GE(pair.client->send_dropped(), 1u);
  EXPECT_TRUE(pair.client->alive());  // shedding is not link death
}

TEST(Endpoint, HeartbeatsAreFilteredAndKeepTheLinkAlive) {
  EndpointOptions chatty;
  chatty.heartbeat_ms = 20;
  EndpointOptions strict;
  strict.heartbeat_ms = 20;
  strict.idle_timeout_ms = 2000;
  Loopback pair = make_loopback(chatty, strict);

  // Neither side sends real traffic; heartbeats must flow underneath
  // (keeping alive() true on the strict side) without ever surfacing.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(pair.accepted->try_recv(), nullptr);
  EXPECT_TRUE(pair.accepted->alive());
  EXPECT_GT(pair.accepted->bytes_received(), 0u);

  // Real traffic still gets through after the idle stretch.
  const std::uint8_t payload[] = {5};
  ASSERT_TRUE(pair.client->send(1, 1, 0, 0, payload, sizeof(payload)));
  InSlot* slot = pair.accepted->recv();
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->frame.type, 1);
  pair.accepted->recycle(slot);
}

TEST(Endpoint, IdleTimeoutDeclaresASilentPeerDead) {
  EndpointOptions silent;
  silent.heartbeat_ms = 0;  // never send keepalives
  EndpointOptions impatient;
  impatient.idle_timeout_ms = 100;
  Loopback pair = make_loopback(silent, impatient);
  // The silent peer never writes; the impatient side must give up and
  // wake its consumer instead of waiting forever.
  EXPECT_EQ(pair.accepted->recv(), nullptr);
  EXPECT_FALSE(pair.accepted->alive());
}

TEST(Socket, ConnectToClosedPortFailsWithinBudget) {
  std::string error;
  // Grab an ephemeral port, then close it so nothing is listening.
  const int listen_fd = tcp_listen("127.0.0.1", 0, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = local_port(listen_fd);
  close_socket(listen_fd);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_LT(tcp_connect("127.0.0.1", port, 300, &error), 0);
  EXPECT_FALSE(error.empty());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Socket, ListenRejectsUnresolvableHost) {
  std::string error;
  EXPECT_LT(tcp_listen("no.such.host.invalid", 0, &error), 0);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace capes::net
