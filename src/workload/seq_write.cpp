#include "workload/seq_write.hpp"

#include <memory>

#include "workload/registry.hpp"

namespace capes::workload {

SeqWrite::SeqWrite(lustre::Cluster& cluster, SeqWriteOptions opts)
    : cluster_(cluster), opts_(opts) {}

void SeqWrite::start() {
  for (std::size_t c = 0; c < cluster_.num_clients(); ++c) {
    for (std::size_t s = 0; s < opts_.streams_per_client; ++s) {
      stream_loop(c, make_file_id(c, 0x100000 + s), 0);
    }
  }
}

void SeqWrite::stream_loop(std::size_t client, std::uint64_t file_id,
                           std::uint64_t offset) {
  if (!running_) return;
  cluster_.client(client).write(
      file_id, offset, opts_.write_size,
      [this, client, file_id, offset] {
        ++ops_;
        cluster_.simulator().schedule_in(
            opts_.op_overhead_us, [this, client, file_id, offset] {
              stream_loop(client, file_id, offset + opts_.write_size);
            });
      });
}

namespace {

constexpr util::Option<SeqWriteOptions> kSeqWriteSpecOptions[] = {
    {"streams", CAPES_FIELD(streams_per_client), util::at_least(1)},
    {"seed", CAPES_FIELD(seed)},
};

}  // namespace

void register_seq_write(Registry& registry) {
  registry.add(
      "seqwrite",
      "seqwrite[:streams=N][,seed=N] — concurrent sequential append "
      "streams (HPC checkpoint / surveillance, §4.3)",
      [](lustre::Cluster& cluster, const SpecArgs& args, std::string* error)
          -> std::unique_ptr<Workload> {
        SeqWriteOptions opts;
        if (!util::parse_options(kSeqWriteSpecOptions, args, "seqwrite option",
                                 &opts, error)) {
          return nullptr;
        }
        return std::make_unique<SeqWrite>(cluster, opts);
      });
}

}  // namespace capes::workload
