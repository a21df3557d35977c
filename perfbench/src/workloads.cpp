#include "workloads.h"

#include <cmath>

#include "common/rng.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using tprm::Time;
using tprm::ticksFromUnits;

/// Stream sizes are set for a 40-second run and scale with --seconds.
std::size_t scaled(double perFortySeconds, double seconds) {
  return static_cast<std::size_t>(
      std::max(50.0, std::round(perFortySeconds * seconds / 40.0)));
}

/// Profile-bound job: one chain of four rigid tasks whose deadlines lie a
/// million paper units out, so nothing ever misses and nothing retires while
/// the clock stays at 0.  Ragged widths and quarter-unit durations keep the
/// availability step function from coalescing.
tprm::task::TunableJobSpec deepSpec(std::size_t index, tprm::Rng& rng) {
  tprm::task::TunableJobSpec spec;
  spec.name = "deep-" + std::to_string(index);
  tprm::task::Chain chain;
  chain.name = "only";
  for (const char* name : {"t0", "t1", "t2", "t3"}) {
    chain.tasks.push_back(tprm::task::TaskSpec::rigid(
        name, static_cast<int>(rng.uniformInt(1, 8)),
        ticksFromUnits(3.0 + 0.25 * static_cast<double>(rng.uniformInt(0, 63))),
        ticksFromUnits(1'000'000.0)));
  }
  spec.chains.push_back(std::move(chain));
  return spec;
}

/// Paced send offsets for scenario jobs: one paper unit of release time
/// lasts `baseRate / ratePerSec` seconds of wall time, so the stream's base
/// rate maps to `ratePerSec` and a burst stays a burst.
void paceByRelease(Stream& stream, double baseRate, double ratePerSec) {
  if (stream.jobs.empty()) return;
  const double nsPerTick =
      1e9 * baseRate / ratePerSec / static_cast<double>(tprm::kTicksPerUnit);
  const Time first = stream.jobs.front().release;
  for (auto& job : stream.jobs) {
    job.dueNs = static_cast<std::int64_t>(
        static_cast<double>(job.release - first) * nsPerTick);
  }
}

Stream fromScenario(const tprm::workload::Scenario& scenario) {
  Stream stream;
  for (const auto& tenant : scenario.tenants) {
    stream.tenantFloors.push_back(tenant.qualityFloor);
  }
  stream.jobs.reserve(scenario.jobs.size());
  for (const auto& generated : scenario.jobs) {
    Job job;
    job.index = stream.jobs.size();
    job.spec = generated.spec;
    job.release = generated.release;
    job.tenant = generated.tenant;
    stream.jobs.push_back(std::move(job));
  }
  return stream;
}

}  // namespace

std::optional<WorkloadConfig> workloadByName(const std::string& name,
                                             double seconds) {
  WorkloadConfig config;
  config.name = name;
  if (name == "flash-v1") {
    config.processors = 32;
    config.shards = 1;
    config.agents = {Wire::V1, Wire::V1, Wire::V1, Wire::V1};
    config.pacedRatePerSec = 2000.0;
    config.pacedJobs = scaled(2000, seconds);
    config.unpacedJobs = scaled(5000, seconds);
  } else if (name == "deep-v2") {
    config.processors = 64;
    config.shards = 1;
    config.agents = {Wire::V2, Wire::V2, Wire::V2, Wire::V2};
    config.cancelEvery = 3;
    config.pacedRatePerSec = 800.0;
    config.pacedJobs = scaled(800, seconds);
    config.unpacedJobs = scaled(4000, seconds);
  } else if (name == "tenants-elastic") {
    config.processors = 32;
    config.shards = 4;
    config.gang = true;
    config.elastic = true;
    config.agents = {Wire::V1, Wire::V2, Wire::V2, Wire::V2};
    config.cancelEvery = 4;
    config.pacedRatePerSec = 2000.0;
    config.pacedJobs = scaled(2000, seconds);
    config.unpacedJobs = scaled(5000, seconds);
  } else {
    return std::nullopt;
  }
  return config;
}

Stream generateStream(const WorkloadConfig& config, std::uint64_t seed,
                      Phase phase) {
  const std::uint64_t phaseSeed =
      tprm::streamSeed(seed, phase == Phase::Paced ? 1 : 2);
  const std::size_t jobs =
      phase == Phase::Paced ? config.pacedJobs : config.unpacedJobs;
  const int agents = static_cast<int>(config.agents.size());
  Stream stream;

  if (config.name == "deep-v2") {
    tprm::Rng shapes(tprm::streamSeed(phaseSeed, 1));
    tprm::Rng gaps(tprm::streamSeed(phaseSeed, 2));
    const double meanGapNs = 1e9 / config.pacedRatePerSec;
    double due = 0.0;
    stream.jobs.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      Job job;
      job.index = i;
      job.spec = deepSpec(i, shapes);
      job.release = 0;
      job.dueNs = static_cast<std::int64_t>(due);
      job.agent = static_cast<int>(i % static_cast<std::size_t>(agents));
      due += gaps.exponential(meanGapNs);
      stream.jobs.push_back(std::move(job));
    }
    return stream;
  }

  const std::string preset =
      config.name == "flash-v1" ? "flash-crowd" : "multi-tenant";
  auto params = tprm::workload::scenarioByName(preset, phaseSeed, jobs);
  if (config.name == "tenants-elastic") params->baseRate *= 3.0;
  stream = fromScenario(tprm::workload::ScenarioGenerator(*params).generate());
  paceByRelease(stream, params->baseRate, config.pacedRatePerSec);

  if (config.name == "tenants-elastic") {
    // Gold (tenant 0) goes to the v1 agent; the v2 agents share the rest.
    std::size_t nextV2 = 0;
    for (auto& job : stream.jobs) {
      if (job.tenant == 0) {
        job.agent = 0;
      } else {
        job.agent = 1 + static_cast<int>(nextV2++ % 3);
      }
    }
  } else {
    for (auto& job : stream.jobs) {
      job.agent = static_cast<int>(job.index % static_cast<std::size_t>(agents));
    }
  }
  return stream;
}

}  // namespace perfbench
