// Scheduler checkpoint/restore differential, over every registered
// discipline (docs/TESTING.md).
//
// Methodology: one deterministic arrival script drives two executions of
// the same discipline — straight through N cycles, and split at cycle k
// by save_state() into a freshly constructed instance that continues via
// restore_state().  The emitted flit streams (flow, packet, index,
// head/tail flags, and the cycle of emission) must be identical, which
// pins every piece of discipline-private state (ERR allowances and
// surplus counts, DRR deficits, timestamp virtual clocks, round cursors)
// as well as the framework's queues, weights, and in-flight latch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "core/packet.hpp"
#include "core/registry.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {
namespace {

constexpr std::size_t kNumFlows = 4;
constexpr Cycle kHorizon = 900;
constexpr Cycle kSplit = 311;  // deliberately not a round boundary

struct Arrival {
  Cycle cycle;
  Packet packet;
};

/// Deterministic arrival script shared by both executions: a simple LCG
/// (not the simulator Rng, so this test has no dependency on its
/// stream) mixes flows and lengths, with a mid-run idle gap so
/// idle-reset disciplines exercise their reset path.
std::vector<Arrival> make_script() {
  std::vector<Arrival> script;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  PacketId::rep_type next_id = 0;
  for (Cycle t = 0; t < kHorizon; ++t) {
    if (t >= 400 && t < 480) continue;  // idle gap
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 100 < 35) {
      const auto flow = static_cast<FlowId::rep_type>((x >> 17) % kNumFlows);
      const auto length = static_cast<Flits>(1 + ((x >> 7) % 8));
      script.push_back({t, Packet{.id = PacketId(next_id++),
                                  .flow = FlowId(flow),
                                  .length = length,
                                  .arrival = t}});
    }
  }
  return script;
}

SchedulerParams params_for(std::string_view name) {
  SchedulerParams params;
  params.num_flows = kNumFlows;
  params.drr_quantum = 8;  // max packet length in the script
  if (name == "perr") params.perr_priorities = {0, 1, 0, 1};
  return params;
}

std::unique_ptr<Scheduler> fresh(std::string_view name) {
  auto scheduler = make_scheduler(name, params_for(name));
  EXPECT_NE(scheduler, nullptr) << name;
  return scheduler;
}

struct EmittedFlit {
  Cycle cycle;
  FlowId::rep_type flow;
  PacketId::rep_type packet;
  Flits index;
  bool is_head;
  bool is_tail;

  bool operator==(const EmittedFlit& o) const {
    return cycle == o.cycle && flow == o.flow && packet == o.packet &&
           index == o.index && is_head == o.is_head && is_tail == o.is_tail;
  }
};

/// Drives `scheduler` over cycles [from, to), feeding the script and
/// appending every emitted flit to `out`.
void drive(Scheduler& scheduler, const std::vector<Arrival>& script,
           Cycle from, Cycle to, std::vector<EmittedFlit>& out) {
  std::size_t cursor = 0;
  while (cursor < script.size() && script[cursor].cycle < from) ++cursor;
  for (Cycle t = from; t < to; ++t) {
    while (cursor < script.size() && script[cursor].cycle == t)
      scheduler.enqueue(t, script[cursor++].packet);
    if (const auto flit = scheduler.pull_flit(t))
      out.push_back({t, flit->flow.value(), flit->packet.value(), flit->index,
                     flit->is_head, flit->is_tail});
  }
}

class SchedulerSnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerSnapshotTest, SplitRunMatchesStraightRun) {
  const std::string name = GetParam();
  const std::vector<Arrival> script = make_script();

  std::vector<EmittedFlit> straight;
  {
    auto scheduler = fresh(name);
    scheduler->set_weight(FlowId(1), 2.0);
    scheduler->set_weight(FlowId(3), 3.0);
    drive(*scheduler, script, 0, kHorizon, straight);
  }

  std::vector<EmittedFlit> split;
  SnapshotWriter w;
  {
    auto scheduler = fresh(name);
    scheduler->set_weight(FlowId(1), 2.0);
    scheduler->set_weight(FlowId(3), 3.0);
    drive(*scheduler, script, 0, kSplit, split);
    scheduler->save_state(w);
  }  // the saving instance is gone before the restore, like a real restart
  {
    auto scheduler = fresh(name);
    // Weights are deliberately NOT re-applied: they are part of the
    // snapshot and must survive the restore on their own.
    SnapshotReader r(w.bytes());
    scheduler->restore_state(r);
    drive(*scheduler, script, kSplit, kHorizon, split);
  }

  ASSERT_EQ(straight.size(), split.size()) << name;
  for (std::size_t i = 0; i < straight.size(); ++i)
    ASSERT_TRUE(straight[i] == split[i]) << name << " flit " << i << " at "
                                         << straight[i].cycle << " vs "
                                         << split[i].cycle;
}

TEST_P(SchedulerSnapshotTest, DoubleSplitAlsoMatches) {
  // Checkpoint chains: save -> restore -> save -> restore must compose.
  const std::string name = GetParam();
  const std::vector<Arrival> script = make_script();

  std::vector<EmittedFlit> straight;
  {
    auto scheduler = fresh(name);
    drive(*scheduler, script, 0, kHorizon, straight);
  }

  std::vector<EmittedFlit> chained;
  SnapshotWriter first;
  {
    auto scheduler = fresh(name);
    drive(*scheduler, script, 0, 200, chained);
    scheduler->save_state(first);
  }
  SnapshotWriter second;
  {
    auto scheduler = fresh(name);
    SnapshotReader r(first.bytes());
    scheduler->restore_state(r);
    drive(*scheduler, script, 200, 500, chained);
    scheduler->save_state(second);
  }
  {
    auto scheduler = fresh(name);
    SnapshotReader r(second.bytes());
    scheduler->restore_state(r);
    drive(*scheduler, script, 500, kHorizon, chained);
  }

  ASSERT_EQ(straight.size(), chained.size()) << name;
  for (std::size_t i = 0; i < straight.size(); ++i)
    ASSERT_TRUE(straight[i] == chained[i]) << name << " flit " << i;
}

TEST_P(SchedulerSnapshotTest, FlowCountMismatchThrows) {
  const std::string name = GetParam();
  SnapshotWriter w;
  {
    auto scheduler = fresh(name);
    scheduler->save_state(w);
  }
  SchedulerParams wrong = params_for(name);
  wrong.num_flows = kNumFlows + 1;
  if (name == "perr") wrong.perr_priorities = {0, 1, 0, 1, 0};
  auto scheduler = make_scheduler(name, wrong);
  ASSERT_NE(scheduler, nullptr);
  SnapshotReader r(w.bytes());
  EXPECT_THROW(scheduler->restore_state(r), SnapshotError) << name;
}

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names;
  for (const std::string_view name : scheduler_names())
    names.emplace_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, SchedulerSnapshotTest,
                         ::testing::ValuesIn(all_scheduler_names()),
                         [](const auto& param_info) {
                           std::string tag = param_info.param;
                           for (char& c : tag)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return tag;
                         });

}  // namespace
}  // namespace wormsched::core
