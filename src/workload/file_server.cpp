#include "workload/file_server.hpp"

#include <algorithm>
#include <memory>

#include "workload/registry.hpp"

namespace capes::workload {

FileServer::FileServer(lustre::Cluster& cluster, FileServerOptions opts)
    : cluster_(cluster), opts_(opts), rng_(opts.seed) {}

std::uint64_t FileServer::sample_file_size(util::Rng& rng) {
  // Exponential-ish distribution around the mean, floored at 1 MB so
  // every file exercises striping.
  const double size =
      rng.exponential(1.0 / static_cast<double>(opts_.mean_file_bytes));
  return std::max<std::uint64_t>(1 << 20, static_cast<std::uint64_t>(size));
}

void FileServer::start() {
  const std::size_t total = cluster_.num_clients() * opts_.instances_per_client;
  instances_.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    Instance& inst = instances_[i];
    inst.client = i / opts_.instances_per_client;
    inst.rng = rng_.split();
    // Prepopulate the file set (sizes only; content writes are implied to
    // have happened before the measurement starts, as Filebench does).
    const std::uint64_t base = (static_cast<std::uint64_t>(i) << 12);
    for (std::size_t f = 0; f < opts_.files_per_instance; ++f) {
      inst.files.push_back(make_file_id(inst.client, base + inst.next_local_id++));
      inst.file_sizes.push_back(sample_file_size(inst.rng));
    }
    instance_loop(i, 0);
  }
}

void FileServer::instance_loop(std::size_t idx, int op) {
  if (!running_) return;
  Instance& inst = instances_[idx];
  auto& sim = cluster_.simulator();
  auto& client = cluster_.client(inst.client);

  auto next = [this, idx, op] {
    ++ops_;
    const int next_op = (op + 1) % 5;
    cluster_.simulator().schedule_in(
        opts_.op_overhead_us, [this, idx, next_op] { instance_loop(idx, next_op); });
  };

  switch (op) {
    case 0: {  // create a file and write it out
      const std::uint64_t base = static_cast<std::uint64_t>(idx) << 12;
      const std::uint64_t file = make_file_id(inst.client, base + inst.next_local_id++);
      const std::uint64_t size = sample_file_size(inst.rng);
      inst.files.push_back(file);
      inst.file_sizes.push_back(size);
      client.metadata_op([&client, file, size, next] {
        client.write(file, 0, size, next);
      });
      break;
    }
    case 1: {  // append a random-sized amount to an existing file
      const std::size_t f = inst.rng.pick_index(inst.files.size());
      const std::uint64_t append = sample_file_size(inst.rng);
      const std::uint64_t file = inst.files[f];
      const std::uint64_t offset = inst.file_sizes[f];
      inst.file_sizes[f] += append;
      client.metadata_op([&client, file, offset, append, next] {
        client.write(file, offset, append, next);
      });
      break;
    }
    case 2: {  // read a whole random file
      const std::size_t f = inst.rng.pick_index(inst.files.size());
      client.read(inst.files[f], 0, inst.file_sizes[f], next);
      break;
    }
    case 3: {  // delete a random file (keep the set from emptying)
      if (inst.files.size() > 1) {
        const std::size_t f = inst.rng.pick_index(inst.files.size());
        inst.files.erase(inst.files.begin() + static_cast<std::ptrdiff_t>(f));
        inst.file_sizes.erase(inst.file_sizes.begin() +
                              static_cast<std::ptrdiff_t>(f));
      }
      client.metadata_op(next);
      break;
    }
    default: {  // stat a random file
      client.metadata_op(next);
      break;
    }
  }
  (void)sim;
}

namespace {

constexpr util::Option<FileServerOptions> kFileServerSpecOptions[] = {
    {"seed", CAPES_FIELD(seed)},
    {"instances", CAPES_FIELD(instances_per_client), util::at_least(1)},
    {"files", CAPES_FIELD(files_per_instance), util::at_least(1)},
};

}  // namespace

void register_file_server(Registry& registry) {
  registry.add(
      "fileserver",
      "fileserver[:seed=N][,instances=N][,files=N] — Filebench-style "
      "create/append/read/delete/stat mix (§4.3, Fig. 3)",
      [](lustre::Cluster& cluster, const SpecArgs& args, std::string* error)
          -> std::unique_ptr<Workload> {
        FileServerOptions opts;
        if (!util::parse_options(kFileServerSpecOptions, args,
                                 "fileserver option", &opts, error)) {
          return nullptr;
        }
        return std::make_unique<FileServer>(cluster, opts);
      });
}

}  // namespace capes::workload
