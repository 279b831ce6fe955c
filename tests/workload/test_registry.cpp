// Workload registry: built-in registration, spec parsing/validation, and
// the self-registration macro for workloads defined outside the library.

#include "workload/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lustre/cluster.hpp"
#include "sim/simulator.hpp"

namespace capes::workload {
namespace {

lustre::ClusterOptions tiny_cluster_options() {
  lustre::ClusterOptions opts;
  opts.num_clients = 2;
  opts.num_servers = 2;
  return opts;
}

struct RegistryFixture : ::testing::Test {
  sim::Simulator sim;
  lustre::Cluster cluster{sim, tiny_cluster_options()};
  Registry& registry = Registry::instance();
};

using RegistryTest = RegistryFixture;

TEST_F(RegistryTest, BuiltinsAreRegistered) {
  const auto names = registry.names();
  for (const char* expected : {"fileserver", "random", "seqwrite"}) {
    EXPECT_TRUE(registry.contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    EXPECT_FALSE(registry.spec_help(expected).empty());
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(RegistryTest, CreatesRandomWithFraction) {
  std::string error;
  auto wl = registry.create("random:0.3", cluster, &error);
  ASSERT_NE(wl, nullptr) << error;
  EXPECT_EQ(wl->name(), "random_rw(r=0.3)");
}

TEST_F(RegistryTest, CreatesBareNamesWithDefaults) {
  for (const char* spec : {"random", "fileserver", "seqwrite"}) {
    std::string error;
    EXPECT_NE(registry.create(spec, cluster, &error), nullptr)
        << spec << ": " << error;
  }
}

TEST_F(RegistryTest, UnknownNameFailsWithError) {
  std::string error;
  EXPECT_EQ(registry.create("bogus:1", cluster, &error), nullptr);
  EXPECT_NE(error.find("unknown workload"), std::string::npos);
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST_F(RegistryTest, RandomRejectsOutOfRangeOrGarbageFraction) {
  for (const char* spec : {"random:1.5", "random:-0.1", "random:abc"}) {
    std::string error;
    EXPECT_EQ(registry.create(spec, cluster, &error), nullptr) << spec;
    EXPECT_NE(error.find("[0, 1]"), std::string::npos) << error;
  }
}

TEST_F(RegistryTest, NamedArgsParse) {
  std::string error;
  EXPECT_NE(registry.create("random:0.5,seed=9,threads=2", cluster, &error),
            nullptr)
      << error;
  EXPECT_NE(registry.create("fileserver:seed=3,instances=2,files=2", cluster,
                            &error),
            nullptr)
      << error;
  EXPECT_NE(registry.create("seqwrite:streams=3", cluster, &error), nullptr)
      << error;
}

TEST_F(RegistryTest, UnknownOrMalformedArgsFail) {
  std::string error;
  EXPECT_EQ(registry.create("random:0.5,bogus=1", cluster, &error), nullptr);
  EXPECT_NE(error.find("bogus"), std::string::npos);
  // fileserver takes no positional args.
  EXPECT_EQ(registry.create("fileserver:0.5", cluster, &error), nullptr);
  // Zero-sized knobs are rejected, not silently accepted.
  EXPECT_EQ(registry.create("seqwrite:streams=0", cluster, &error), nullptr);
  // Trailing comma / empty argument.
  EXPECT_EQ(registry.create("random:0.5,", cluster, &error), nullptr);
  // Malformed key=value.
  EXPECT_EQ(registry.create("random:seed=", cluster, &error), nullptr);
}

TEST_F(RegistryTest, SpecKeysAreCheckedByTheirRows) {
  std::string error;
  // The read fraction stays positional.
  EXPECT_NE(registry.create("random:0.3", cluster, &error), nullptr) << error;
  EXPECT_EQ(registry.create("random:2", cluster, &error), nullptr);
  EXPECT_NE(error.find("'2'"), std::string::npos) << error;
  EXPECT_EQ(registry.create("random:0.5,threads=0", cluster, &error), nullptr);
  EXPECT_NE(error.find("threads must be an integer >= 1, got '0'"),
            std::string::npos)
      << error;
  EXPECT_EQ(registry.create("fileserver:bogus=1", cluster, &error), nullptr);
  EXPECT_NE(error.find("unknown fileserver option 'bogus'"), std::string::npos)
      << error;
}

TEST(RegistrySpecArgs, SplitsPositionalAndNamed) {
  SpecArgs args;
  std::string error;
  ASSERT_TRUE(parse_spec_args("0.3,seed=7,threads=2", &args, &error)) << error;
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "0.3");
  EXPECT_EQ(args.named.at("seed"), "7");
  EXPECT_EQ(args.named.at("threads"), "2");
}

// A minimal workload defined and registered entirely outside the library,
// the way a downstream binary would plug one in.
class NullWorkload : public Workload {
 public:
  void start() override {}
  void request_stop() override {}
  std::string name() const override { return "null"; }
  std::uint64_t ops_completed() const override { return 0; }
};

CAPES_REGISTER_WORKLOAD(null_workload, "null", "null — does nothing",
                        [](lustre::Cluster&, const SpecArgs&, std::string*) {
                          return std::make_unique<NullWorkload>();
                        })

TEST_F(RegistryTest, MacroSelfRegistrationWorks) {
  ASSERT_TRUE(registry.contains("null"));
  auto wl = registry.create("null", cluster);
  ASSERT_NE(wl, nullptr);
  EXPECT_EQ(wl->name(), "null");
}

TEST_F(RegistryTest, DuplicateNameIsRejected) {
  EXPECT_FALSE(registry.add(
      "random", "dup", [](lustre::Cluster&, const SpecArgs&, std::string*) {
        return std::unique_ptr<Workload>();
      }));
}

}  // namespace
}  // namespace capes::workload
