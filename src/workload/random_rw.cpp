#include "workload/random_rw.hpp"

#include <memory>
#include <sstream>

#include "workload/registry.hpp"

namespace capes::workload {

RandomRw::RandomRw(lustre::Cluster& cluster, RandomRwOptions opts)
    : cluster_(cluster), opts_(opts), rng_(opts.seed) {}

std::string RandomRw::name() const {
  std::ostringstream ss;
  ss << "random_rw(r=" << opts_.read_fraction << ")";
  return ss.str();
}

void RandomRw::start() {
  const std::size_t first = threads_.size();
  for (std::size_t c = 0; c < cluster_.num_clients(); ++c) {
    for (std::size_t t = 0; t < opts_.threads_per_client; ++t) {
      threads_.push_back(IoThread{c, make_file_id(c, t), rng_.split()});
    }
  }
  for (std::size_t i = first; i < threads_.size(); ++i) thread_loop(i);
}

void RandomRw::thread_loop(std::size_t idx) {
  if (!running_) return;
  IoThread& th = threads_[idx];
  // Uniform random offset, aligned to the I/O size.
  const std::uint64_t slots = opts_.file_size / opts_.io_size;
  const std::uint64_t offset = th.rng.uniform_u64(slots) * opts_.io_size;
  const bool is_read = th.rng.chance(opts_.read_fraction);

  auto next = [this, idx] {
    ++ops_;
    cluster_.simulator().schedule_in(opts_.op_overhead_us,
                                     [this, idx] { thread_loop(idx); });
  };
  if (is_read) {
    cluster_.client(th.client).read(th.file_id, offset, opts_.io_size, next);
  } else {
    cluster_.client(th.client).write(th.file_id, offset, opts_.io_size, next);
  }
}

namespace {

/// The random: spec's one positional argument.
constexpr util::Option<RandomRwOptions> kReadFraction = {
    "read fraction", CAPES_FIELD(read_fraction), {.lo = 0.0, .hi = 1.0}};

constexpr util::Option<RandomRwOptions> kRandomRwSpecOptions[] = {
    {"seed", CAPES_FIELD(seed)},
    {"threads", CAPES_FIELD(threads_per_client), util::at_least(1)},
};

}  // namespace

void register_random_rw(Registry& registry) {
  registry.add(
      "random",
      "random[:<read_frac>][,seed=N][,threads=N] — fixed-ratio random R/W "
      "mix (§4.3, Fig. 2); read_frac in [0, 1]",
      [](lustre::Cluster& cluster, const SpecArgs& raw, std::string* error)
          -> std::unique_ptr<Workload> {
        SpecArgs args = raw;
        RandomRwOptions opts;
        if (!args.positional.empty()) {
          if (!kReadFraction.assign(opts, args.positional.front(),
                                    /*clamp=*/false, error)) {
            return nullptr;
          }
          args.positional.erase(args.positional.begin());
        }
        if (!util::parse_options(kRandomRwSpecOptions, args, "random option",
                                 &opts, error)) {
          return nullptr;
        }
        return std::make_unique<RandomRw>(cluster, opts);
      });
}

}  // namespace capes::workload
