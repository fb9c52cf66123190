#include "wormhole/network.hpp"

#include <gtest/gtest.h>

#include "golden_digest.hpp"
#include "sim/engine.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::wormhole {
namespace {

PacketDescriptor make_packet(std::uint64_t id, std::uint32_t src,
                             std::uint32_t dest, Flits len, Cycle created) {
  PacketDescriptor p;
  p.id = PacketId(id);
  p.flow = FlowId(src);
  p.source = NodeId(src);
  p.dest = NodeId(dest);
  p.length = len;
  p.created = created;
  return p;
}

Cycle run_to_idle(Network& net, Cycle cap = 200000) {
  sim::Engine engine;
  engine.add_component(net);
  return engine.run_until_idle(cap);
}

TEST(Network, DeliversSinglePacketAcrossMesh) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  net.inject(0, make_packet(1, 0, 15, 8, 0));
  const Cycle end = run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 1u);
  const DeliveredPacket& p = net.delivered()[0];
  EXPECT_EQ(p.source, NodeId(0));
  EXPECT_EQ(p.dest, NodeId(15));
  EXPECT_EQ(p.length, 8);
  // 6 link traversals take the head to the far corner by cycle 6 at the
  // earliest; the tail (flit 8) ejects 7 cycles later.
  EXPECT_GE(p.delivered - p.created, 13u);
  EXPECT_LT(end, 200u);
}

TEST(Network, LocalDelivery) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(2, 2);
  Network net(config);
  net.inject(0, make_packet(1, 1, 1, 3, 0));  // dest == source
  run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 1u);
  EXPECT_EQ(net.delivered()[0].dest, NodeId(1));
}

TEST(Network, ConservationUnderUniformLoad) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = 0.01;
  traffic_config.inject_until = 3000;
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 12);
  NetworkTrafficSource source(net, traffic_config);
  sim::Engine engine;
  engine.add_component(source);
  engine.add_component(net);
  engine.run_until(3000);
  engine.run_until_idle(100000);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.delivered().size(), source.generated());
  EXPECT_EQ(net.injected_packets(), source.generated());
  // Flit-level conservation: every flit of every packet was ejected,
  // none duplicated.
  Flits delivered_lengths = 0;
  for (const auto& p : net.delivered()) delivered_lengths += p.length;
  EXPECT_EQ(static_cast<std::uint64_t>(delivered_lengths),
            net.delivered_flits());
}

TEST(Network, TorusDeliversWithDateline) {
  NetworkConfig config;
  config.topo = TopologySpec::torus(4, 4);
  config.router.num_vcs = 2;
  Network net(config);
  // Exercise wrap links explicitly: corner-to-corner both dimensions.
  net.inject(0, make_packet(1, 0, 15, 6, 0));   // wraps west+north way
  net.inject(0, make_packet(2, 15, 0, 6, 0));
  net.inject(0, make_packet(3, 3, 0, 6, 0));    // X wrap
  run_to_idle(net);
  EXPECT_EQ(net.delivered().size(), 3u);
}

TEST(Network, TorusSaturationNoDeadlock) {
  // Heavy uniform load on a torus: the dateline VCs must prevent deadlock
  // and the network must fully drain after injection stops.
  NetworkConfig config;
  config.topo = TopologySpec::torus(4, 4);
  config.router.num_vcs = 2;
  config.router.buffer_depth = 4;
  Network net(config);
  NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = 0.05;  // well past saturation
  traffic_config.inject_until = 2000;
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 8);
  traffic_config.seed = 5;
  NetworkTrafficSource source(net, traffic_config);
  sim::Engine engine;
  engine.add_component(source);
  engine.add_component(net);
  engine.run_until(2000);
  const Cycle end = engine.run_until_idle(500000);
  EXPECT_TRUE(net.idle()) << "possible deadlock: stopped at " << end;
  EXPECT_EQ(net.delivered().size(), source.generated());
}

TEST(Network, MeshSaturationNoDeadlockAllArbiters) {
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    SCOPED_TRACE(arbiter);
    NetworkConfig config;
    config.topo = TopologySpec::mesh(3, 3);
    config.router.arbiter = arbiter;
    config.router.buffer_depth = 4;
    Network net(config);
    NetworkTrafficSource::Config traffic_config;
    traffic_config.packets_per_node_per_cycle = 0.08;
    traffic_config.inject_until = 1500;
    traffic_config.lengths = traffic::LengthSpec::uniform(1, 8);
    NetworkTrafficSource source(net, traffic_config);
    sim::Engine engine;
    engine.add_component(source);
    engine.add_component(net);
    engine.run_until(1500);
    engine.run_until_idle(300000);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.delivered().size(), source.generated());
  }
}

// Runs one traffic configuration to drain and returns the full delivery
// record.
std::vector<DeliveredPacket> run_traffic(const NetworkConfig& config,
                                         double rate, Cycle inject_until,
                                         std::uint64_t seed) {
  Network net(config);
  NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = rate;
  traffic_config.inject_until = inject_until;
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 12);
  traffic_config.pattern.kind = PatternSpec::Kind::kHotspot;
  traffic_config.seed = seed;
  NetworkTrafficSource source(net, traffic_config);
  sim::Engine engine;
  engine.add_component(source);
  engine.add_component(net);
  engine.run_until(inject_until);
  engine.run_until_idle(inject_until * 100);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.delivered().size(), source.generated());
  return net.delivered();
}

TEST(Network, ActiveSetBitIdenticalToDenseTick) {
  // The active set only skips ticks that are provably no-ops, so every
  // delivered packet, in order and with its delivery cycle, must match
  // what ticking every router every cycle produced when these values
  // were recorded — under congested hotspot traffic where routers enroll
  // and retire constantly.
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  config.router.buffer_depth = 4;
  struct Recorded {
    std::uint64_t seed;
    std::size_t packets;
    const char* digest;
  };
  for (const Recorded& want : {Recorded{1, 919, "7d25841507f0677f"},
                               Recorded{7, 1017, "13d6dda130ee6b18"},
                               Recorded{42, 979, "b0bbaf42a7199266"}}) {
    SCOPED_TRACE(want.seed);
    const auto delivered = run_traffic(config, 0.03, 2000, want.seed);
    test::Fnv1a64 h;
    test::hash_delivered(h, delivered);
    EXPECT_EQ(delivered.size(), want.packets);
    EXPECT_EQ(test::hex(h.value()), want.digest);
  }
}

TEST(Network, IdleIsConstantTimeCounterCheck) {
  // idle() must be true exactly when nothing is buffered, bound, queued
  // or in flight — checked across inject / drain phase boundaries.
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  EXPECT_TRUE(net.idle());
  net.inject(0, make_packet(1, 0, 15, 4, 0));
  EXPECT_FALSE(net.idle());  // NIC backlog counts as busy
  run_to_idle(net);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.delivered().size(), 1u);
}

TEST(Network, LatencyGrowsWithDistance) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(8, 1);
  Network net(config);
  net.inject(0, make_packet(1, 0, 1, 4, 0));
  net.inject(0, make_packet(2, 0, 7, 4, 0));
  run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 2u);
  Cycle near = 0, far = 0;
  for (const auto& p : net.delivered()) {
    if (p.dest == NodeId(1)) near = p.delivered - p.created;
    if (p.dest == NodeId(7)) far = p.delivered - p.created;
  }
  EXPECT_GT(far, near);
}

TEST(Network, PerFlowAccounting) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(2, 2);
  Network net(config);
  net.inject(0, make_packet(1, 0, 3, 5, 0));
  net.inject(0, make_packet(2, 1, 2, 7, 0));
  run_to_idle(net);
  const auto flits = net.delivered_flits_by_flow(4);
  EXPECT_EQ(flits[0], 5);
  EXPECT_EQ(flits[1], 7);
  EXPECT_EQ(flits[2], 0);
  EXPECT_EQ(net.latency_by_source(NodeId(0)).count(), 1u);
  EXPECT_EQ(net.latency_overall().count(), 2u);
}

TEST(Patterns, DestinationsAreValidAndNotSelf) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(9);
  for (const auto kind :
       {PatternSpec::Kind::kUniform, PatternSpec::Kind::kTranspose,
        PatternSpec::Kind::kBitComplement, PatternSpec::Kind::kHotspot,
        PatternSpec::Kind::kNeighbor}) {
    PatternSpec pattern;
    pattern.kind = kind;
    pattern.hotspot = NodeId(5);
    for (std::uint32_t src = 0; src < 16; ++src) {
      for (int k = 0; k < 8; ++k) {
        const NodeId dest =
            pick_destination(topo, pattern, NodeId(src), rng);
        EXPECT_LT(dest.value(), 16u);
        EXPECT_NE(dest, NodeId(src));
      }
    }
  }
}

TEST(Patterns, TransposeSwapsCoordinates) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(1);
  PatternSpec pattern;
  pattern.kind = PatternSpec::Kind::kTranspose;
  // (1, 2) = node 9 -> (2, 1) = node 6.
  EXPECT_EQ(pick_destination(topo, pattern, NodeId(9), rng), NodeId(6));
}

TEST(Patterns, HotspotConcentratesTraffic) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(2);
  PatternSpec pattern;
  pattern.kind = PatternSpec::Kind::kHotspot;
  pattern.hotspot = NodeId(10);
  pattern.hotspot_fraction = 0.8;
  int to_hotspot = 0;
  const int n = 4000;
  for (int k = 0; k < n; ++k)
    if (pick_destination(topo, pattern, NodeId(0), rng) == NodeId(10))
      ++to_hotspot;
  EXPECT_GT(static_cast<double>(to_hotspot) / n, 0.75);
}

}  // namespace
}  // namespace wormsched::wormhole

namespace wormsched::wormhole {
namespace {

// NetworkConfig::validate is the one config check: the constructors
// assert it, the CLI prints it.  Each violation is reported on its own.
TEST(NetworkConfigValidate, ReportsEachViolation) {
  EXPECT_EQ(NetworkConfig{}.validate(), "");
  const auto error_with = [](auto&& mutate) {
    NetworkConfig config;
    mutate(config);
    return config.validate();
  };
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.router.num_vcs = 0; }),
            "num_vcs must be >= 1");
  EXPECT_NE(error_with([](NetworkConfig& c) { c.router.num_vcs = 13; })
                .find("num_vcs must be <= 12"),
            std::string::npos);
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.router.num_vcs = 12; }), "");
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.router.buffer_depth = 0; }),
            "buffer_depth 0 deadlocks every flow-control scheme");
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.router.arbiter = "nosuch"; }),
            "unknown router arbiter 'nosuch'");
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.link_latency = 0; }),
            "link_latency must be >= 1");
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.shards = 0; }),
            "shards must be >= 1");
  EXPECT_EQ(error_with([](NetworkConfig& c) { c.threads = 0; }),
            "threads must be >= 1");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::torus(4, 4);
              c.router.num_vcs = 1;
            }),
            "torus requires >= 2 VC classes (dateline rule)");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.routing = NetworkConfig::Routing::kUpDownAdaptive;
            }),
            "up/down adaptive routing is fat-tree-only");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::fat_tree(4);
              c.routing = NetworkConfig::Routing::kWestFirst;
            }),
            "west-first routing is mesh-only");
  // Fabric size: node ids and the (node, port, VC) unit keys are 32-bit.
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::mesh(65536, 65536);
            }),
            "fabric has 4294967296 nodes, more than a 32-bit node id can name");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::mesh(60000, 60000);
            }),
            "fabric has 36000000000 (node, port, VC) units, more than the "
            "32-bit unit key holds");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::mesh(65536, 13107);  // 2^32 - 65536 units
              c.router.num_vcs = 1;
            }),
            "");
  EXPECT_EQ(error_with([](NetworkConfig& c) {
              c.topo = TopologySpec::mesh(65536, 13108);  // 2^32 + 262144 units
              c.router.num_vcs = 1;
            }),
            "fabric has 4295229440 (node, port, VC) units, more than the "
            "32-bit unit key holds");
}

// On/off watermarks are checked as the Network will resolve them: an
// explicit on_low above the auto on_high is caught before construction.
TEST(NetworkConfigValidate, ChecksResolvedWatermarks) {
  NetworkConfig config;
  config.router.flow_control = FlowControl::kOnOff;
  config.router.buffer_depth = 4;
  EXPECT_EQ(config.validate(), "");  // auto: high 3, low 2
  config.router.on_low = 4;          // > auto high 3
  EXPECT_NE(config.validate().find("1 <= on_low <= on_high <= buffer_depth"),
            std::string::npos);
  config.router.buffer_model = BufferModel::kInfinite;  // no watermarks
  EXPECT_EQ(config.validate(), "");
}

TEST(NetworkConfigValidateDeathTest, ConstructorsAssertIt) {
  NetworkConfig config;
  config.router.arbiter = "nosuch";
  EXPECT_DEATH(Network{config}, "unknown router arbiter 'nosuch'");
  EXPECT_DEATH(Router(NodeId(0), config.router),
               "unknown router arbiter 'nosuch'");
}

}  // namespace
}  // namespace wormsched::wormhole
