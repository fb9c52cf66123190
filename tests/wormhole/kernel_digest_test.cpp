// Golden digests pinning the network tick against history.
//
// Every config below runs through harness::NetworkRun at threads = shards
// in {1, 2, 4}, plus a checkpoint split (saved at threads 1, restored at
// threads 2), and each run must hash to the config's one committed digest
// in tests/data/kernel_digests.txt.  The digest is FNV-1a-64 over:
//
//   * the ordered delivered log (id, flow, source, dest, length, created,
//     delivered) — the split run's log is the saving run's prefix followed
//     by the restored run's continuation;
//   * the bit patterns of the final latency mean, min, max and p99;
//   * the delivered flit count and the end cycle.
//
// The differential suites compare one shard against many shards of the
// same kernel; these digests are what tie that kernel to the results it
// produced when they were recorded.  A mismatch prints the digest the run
// produced, in the file's "<name> <hex>" line format.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "golden_digest.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "validate/faults.hpp"
#include "wormhole/network.hpp"

namespace wormsched::harness {
namespace {

using wormhole::DeliveredPacket;
using wormhole::FlowControl;
using wormhole::NetworkConfig;
using wormhole::TopologySpec;
using wormhole::test::Fnv1a64;
using wormhole::test::hex;

constexpr std::uint64_t kSeed = 21;
constexpr Cycle kInjectUntil = 600;
constexpr Cycle kSplitCycle = 300;  // mid-injection

struct DigestCase {
  const char* name;
  TopologySpec topo;
  FlowControl flow_control;
  NetworkConfig::Routing routing;
  bool faults;
  bool audit;
};

NetworkScenarioConfig scenario_for(const DigestCase& c, std::uint32_t threads) {
  NetworkScenarioConfig config;
  config.network.topo = c.topo;
  config.network.router.num_vcs = 2;  // torus-legal everywhere
  config.network.router.flow_control = c.flow_control;
  config.network.routing = c.routing;
  config.network.threads = threads;
  config.network.shards = threads;
  config.traffic.packets_per_node_per_cycle = 0.03;
  config.traffic.inject_until = kInjectUntil;
  if (c.faults) config.faults = validate::FaultSpec::chaos(5);
  config.audit = c.audit;
  return config;
}

std::uint64_t digest(const std::vector<DeliveredPacket>& log,
                     const NetworkScenarioResult& result) {
  Fnv1a64 h;
  wormhole::test::hash_delivered(h, log);
  h.f64(result.latency.mean());
  h.f64(result.latency.min());
  h.f64(result.latency.max());
  h.f64(result.p99_latency);
  h.u64(result.delivered_flits);
  h.u64(result.end_cycle);
  return h.value();
}

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t audit_violations = 0;
};

DigestRun run_straight(const DigestCase& c, std::uint32_t threads) {
  NetworkRun run(scenario_for(c, threads), kSeed);
  run.run_to_completion();
  const std::vector<DeliveredPacket> log = run.network().delivered();
  const NetworkScenarioResult result = run.finish();
  return {digest(log, result), result.delivered_packets,
          result.audit_violations};
}

DigestRun run_split(const DigestCase& c) {
  std::vector<DeliveredPacket> log;
  SnapshotFile file;
  {
    NetworkRun run(scenario_for(c, 1), kSeed);
    run.advance_to(kSplitCycle);
    log = run.network().delivered();
    file = run.make_snapshot_file();
  }
  NetworkRun resumed(scenario_for(c, 2), file);
  resumed.run_to_completion();
  const std::vector<DeliveredPacket>& rest = resumed.network().delivered();
  log.insert(log.end(), rest.begin(), rest.end());
  const NetworkScenarioResult result = resumed.finish();
  return {digest(log, result), result.delivered_packets,
          result.audit_violations};
}

using Routing = NetworkConfig::Routing;
constexpr FlowControl kCredit = FlowControl::kCredit;
constexpr FlowControl kOnOff = FlowControl::kOnOff;

const DigestCase kCases[] = {
    {"mesh8x8_credit_dor", TopologySpec::mesh(8, 8), kCredit, Routing::kDor,
     false, false},
    {"mesh8x8_credit_dor_faults", TopologySpec::mesh(8, 8), kCredit,
     Routing::kDor, true, false},
    {"mesh8x8_credit_westfirst", TopologySpec::mesh(8, 8), kCredit,
     Routing::kWestFirst, false, false},
    {"mesh8x8_credit_westfirst_faults", TopologySpec::mesh(8, 8), kCredit,
     Routing::kWestFirst, true, false},
    {"mesh8x8_onoff_dor", TopologySpec::mesh(8, 8), kOnOff, Routing::kDor,
     false, false},
    {"mesh8x8_onoff_dor_faults", TopologySpec::mesh(8, 8), kOnOff,
     Routing::kDor, true, false},
    {"mesh8x8_onoff_westfirst", TopologySpec::mesh(8, 8), kOnOff,
     Routing::kWestFirst, false, false},
    {"mesh8x8_onoff_westfirst_faults", TopologySpec::mesh(8, 8), kOnOff,
     Routing::kWestFirst, true, false},
    {"torus4x4_credit_dor", TopologySpec::torus(4, 4), kCredit, Routing::kDor,
     false, false},
    {"torus4x4_credit_dor_faults", TopologySpec::torus(4, 4), kCredit,
     Routing::kDor, true, false},
    {"fattree4_onoff_dor", TopologySpec::fat_tree(4), kOnOff, Routing::kDor,
     false, false},
    {"fattree4_onoff_adaptive", TopologySpec::fat_tree(4), kOnOff,
     Routing::kUpDownAdaptive, false, false},
    {"mesh8x8_credit_dor_faults_audited", TopologySpec::mesh(8, 8), kCredit,
     Routing::kDor, true, true},
};

class KernelDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(KernelDigestTest, EveryThreadCountAndRestoreMatchesGolden) {
  const DigestCase& c = GetParam();
  // One "<config> <16 hex digits>" line per config.
  const auto goldens = wormhole::test::load_goldens(WS_KERNEL_DIGESTS);
  const auto it = goldens.find(c.name);
  std::vector<std::pair<std::string, DigestRun>> runs;
  for (const std::uint32_t threads : {1u, 2u, 4u})
    runs.emplace_back("threads=" + std::to_string(threads),
                      run_straight(c, threads));
  runs.emplace_back("save@threads=1 restore@threads=2", run_split(c));
  for (const auto& [label, run] : runs) {
    EXPECT_GT(run.delivered_packets, 0u) << label;
    EXPECT_EQ(run.audit_violations, 0u) << label;
    ASSERT_TRUE(it != goldens.end() && it->second.size() == 1)
        << "no golden for this config; this run produced:\n"
        << c.name << " " << hex(run.digest);
    EXPECT_EQ(hex(run.digest), it->second.front())
        << label << " produced:\n"
        << c.name << " " << hex(run.digest);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KernelDigestTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DigestCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace wormsched::harness
