// Fault-schedule runs pinned against history.
//
// Every run is an audited 4x4-mesh fabric (ERR arbiters) under one of
// five fault presets.  It must come back audit-clean, deliver packets,
// and hash — delivered log, delivered flit count, end cycle — to the
// committed golden for its suite, preset and seed in
// tests/data/fault_digests.txt.  Each seed is run at more than one shard
// count (some on a real worker team) and across a checkpoint split, and
// every variant must reproduce the same golden: faults are pure functions
// of (seed, cycle, node), so a restored run or one at another shard count
// sees the identical schedule.  The NetworkAuditor re-derives the router
// masks and the active set every cycle on every run.
//
// The goldens were recorded while two more execution paths still existed
// (ticking every router every cycle; a full-scan router pipeline that
// read only the per-unit flags), and these runs were then bit-identical
// across all four combinations of them.  The suite names keep that
// history.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "golden_digest.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "validate/faults.hpp"
#include "wormhole/network.hpp"

namespace wormsched::wormhole {
namespace {

using harness::NetworkRun;
using harness::NetworkScenarioConfig;
using validate::FaultSpec;

std::uint64_t digest(const std::vector<DeliveredPacket>& log,
                     std::uint64_t delivered_flits, Cycle end_cycle) {
  test::Fnv1a64 h;
  test::hash_delivered(h, log);
  h.u64(delivered_flits);
  h.u64(end_cycle);
  return h.value();
}

/// How a pinned run is executed; every variant must hash alike.  A split
/// run is saved mid-injection from one shard and restored at `shards`.
struct Variant {
  std::uint32_t threads = 1;
  std::uint32_t shards = 1;
  bool split = false;
};

std::string label(const Variant& v) {
  return "threads=" + std::to_string(v.threads) +
         " shards=" + std::to_string(v.shards) +
         (v.split ? " restored mid-injection" : "");
}

NetworkScenarioConfig scenario(const FaultSpec& spec, Cycle inject_until,
                               std::uint32_t threads, std::uint32_t shards) {
  NetworkScenarioConfig config;  // 4x4 mesh, ERR arbiters
  config.network.threads = threads;
  config.network.shards = shards;
  config.traffic.packets_per_node_per_cycle = 0.04;
  config.traffic.inject_until = inject_until;
  config.faults = spec;
  config.audit = true;
  config.audit_err = false;  // the fabric auditor alone, every cycle
  return config;
}

struct PinnedRun {
  std::uint64_t digest = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t audit_violations = 0;
};

PinnedRun run_pinned(const FaultSpec& spec, std::uint64_t seed,
                     Cycle inject_until, const Variant& v) {
  const NetworkScenarioConfig config =
      scenario(spec, inject_until, v.threads, v.shards);
  std::vector<DeliveredPacket> log;
  std::optional<NetworkRun> run;
  if (v.split) {
    SnapshotFile file;
    {
      NetworkRun first(scenario(spec, inject_until, 1, 1), seed);
      first.advance_to(inject_until / 2);
      log = first.network().delivered();
      file = first.make_snapshot_file();
    }
    run.emplace(config, file);
  } else {
    run.emplace(config, seed);
  }
  run->run_to_completion();
  const std::vector<DeliveredPacket>& rest = run->network().delivered();
  log.insert(log.end(), rest.begin(), rest.end());
  const harness::NetworkScenarioResult result = run->finish();
  return {digest(log, result.delivered_flits, result.end_cycle),
          result.delivered_packets, result.audit_violations};
}

struct Preset {
  const char* name;
  FaultSpec spec;
};

Preset preset(int k) {
  FaultSpec spec;
  switch (k) {
    case 0:
      return {"no_faults", spec};
    case 1:
      spec.enabled = true;
      spec.link_stall_rate = 0.4;
      spec.link_stall_cycles = 6;
      return {"link_stalls", spec};
    case 2:
      spec.enabled = true;
      spec.credit_stall_rate = 0.4;
      spec.credit_stall_cycles = 20;
      return {"credit_starvation", spec};
    case 3:
      spec.enabled = true;
      spec.churn_rate = 0.25;
      spec.burst_rate = 0.2;
      return {"churn_and_bursts", spec};
    default:
      return {"all_fault_classes", FaultSpec::chaos(0)};
  }
}

/// Runs `seed` under every variant in `variants`; each must be audit-clean,
/// deliver packets, and match the "<seed>:<hex>" field of golden line
/// "<suite>.<preset>".
void expect_pinned(const std::string& suite, const Preset& p,
                   std::uint64_t seed, Cycle inject_until,
                   const std::vector<Variant>& variants) {
  static const auto goldens = test::load_goldens(WS_FAULT_DIGESTS);
  const std::string line = suite + "." + p.name;
  const std::string key = std::to_string(seed) + ":";
  std::string golden;
  if (const auto it = goldens.find(line); it != goldens.end()) {
    for (const std::string& field : it->second)
      if (field.rfind(key, 0) == 0) golden = field;
  }
  for (const Variant& v : variants) {
    const PinnedRun run = run_pinned(p.spec, seed, inject_until, v);
    const std::string produced = key + test::hex(run.digest);
    EXPECT_GT(run.delivered_packets, 0u) << label(v);
    EXPECT_EQ(run.audit_violations, 0u) << label(v);
    EXPECT_EQ(produced, golden)
        << label(v) << " produced, for line " << line << ":\n"
        << produced;
  }
}

// Every seed runs on one shard and across a checkpoint split restored
// at four shards; seed 1 also runs on a real worker team of four threads
// (even presets) or two (odd presets).
class FaultDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void check(int k) {
    const std::uint64_t seed = GetParam();
    std::vector<Variant> variants = {{1, 1, false}, {1, 4, true}};
    if (seed == 1)
      variants.push_back(k % 2 == 0 ? Variant{4, 4, false}
                                    : Variant{2, 2, false});
    expect_pinned("fault_differential", preset(k), seed, 1500, variants);
  }
};

TEST_P(FaultDifferentialTest, NoFaults) { check(0); }
TEST_P(FaultDifferentialTest, LinkStallsOnly) { check(1); }
TEST_P(FaultDifferentialTest, CreditStarvationOnly) { check(2); }
TEST_P(FaultDifferentialTest, ChurnAndBursts) { check(3); }
TEST_P(FaultDifferentialTest, AllFaultClasses) { check(4); }

INSTANTIATE_TEST_SUITE_P(Seeds, FaultDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 6));

// Pipeline fuzz: fresh seeds the block above never sees, rotated through
// the five presets with a shorter injection window.  Each seed runs on
// one shard; every other block of five seeds adds one rotated sharded or
// split variant, so every preset still meets every variant.
class PipelineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzzTest, SparseAndDensePipelinesAgree) {
  const std::uint64_t seed = GetParam();
  const Preset p = preset(static_cast<int>(seed % 5));
  const Variant rotated[] = {{1, 2, false}, {1, 4, false}, {1, 2, true}};
  std::vector<Variant> variants = {{1, 1, false}};
  if (const std::uint64_t block = seed / 5; block % 2 == 0)
    variants.push_back(rotated[(block / 2) % 3]);
  expect_pinned("pipeline_fuzz", p, seed, /*inject_until=*/800, variants);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range<std::uint64_t>(100, 140));

}  // namespace
}  // namespace wormsched::wormhole
