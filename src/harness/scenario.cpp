#include "harness/scenario.hpp"

#include "harness/checkpoint.hpp"

namespace wormsched::harness {

ScenarioResult::ScenarioResult(std::size_t num_flows, Bytes flit_bytes)
    : service_log(num_flows, flit_bytes),
      activity(num_flows),
      delays(num_flows) {}

ScenarioResult run_scenario(std::string_view scheduler_name,
                            const ScenarioConfig& config,
                            const traffic::Trace& trace) {
  ScenarioRun run(scheduler_name, config, trace);
  run.run_to_completion();
  return run.finish();
}

ScenarioResult run_scenario(std::string_view scheduler_name,
                            const ScenarioConfig& config,
                            const traffic::WorkloadSpec& workload) {
  const traffic::Trace trace =
      traffic::generate_trace(workload, config.horizon, config.seed);
  return run_scenario(scheduler_name, config, trace);
}

}  // namespace wormsched::harness
