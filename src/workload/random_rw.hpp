#pragma once
// Random read/write workload with a configurable read:write ratio — the
// Figure 2 workload family (ratios 9:1, 4:1, 1:1, 1:4, 1:9). Each client
// runs `threads_per_client` instances doing fixed-size random I/O against
// a private file (§4.3: "each client has five threads doing the same
// random read and write with a fixed ratio").

#include <cstdint>
#include <string>
#include <vector>

#include "lustre/cluster.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace capes::workload {

class Registry;

struct RandomRwOptions {
  double read_fraction = 0.5;      ///< probability an op is a read
  std::uint64_t io_size = 64 << 10;
  std::size_t threads_per_client = 5;
  std::uint64_t file_size = 8ull << 30;  ///< random-offset range per thread
  /// Per-op client CPU/think time before issuing the next op, us.
  std::int64_t op_overhead_us = 100;
  std::uint64_t seed = 7;
};

class RandomRw : public Workload {
 public:
  RandomRw(lustre::Cluster& cluster, RandomRwOptions opts);

  void start() override;
  void request_stop() override { running_ = false; }
  std::string name() const override;
  std::uint64_t ops_completed() const override { return ops_; }

 private:
  /// One I/O thread: its client, private file and generator.
  struct IoThread {
    std::size_t client;
    std::uint64_t file_id;
    util::Rng rng;
  };

  /// Start thread `idx`'s next op; its completion re-enters after the
  /// op overhead. Closures capture the index, not the thread's state.
  void thread_loop(std::size_t idx);

  lustre::Cluster& cluster_;
  RandomRwOptions opts_;
  util::Rng rng_;
  std::vector<IoThread> threads_;
  bool running_ = true;
  std::uint64_t ops_ = 0;
};

/// Registers "random[:<read_frac>][,seed=N][,threads=N]" (see registry.hpp).
void register_random_rw(Registry& registry);

}  // namespace capes::workload
