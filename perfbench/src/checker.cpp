#include "checker.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using tprm::Time;
using tprm::kTimeInfinity;
using tprm::sched::TaskPlacement;
using tprm::task::Chain;
using tprm::task::QualityComposition;
using tprm::task::TunableJobSpec;

class Violations {
 public:
  void add(std::string message) {
    ++count_;
    if (messages_.size() < 8) messages_.push_back(std::move(message));
  }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::vector<std::string> take() { return std::move(messages_); }

 private:
  std::size_t count_ = 0;
  std::vector<std::string> messages_;
};

double chainQuality(const TunableJobSpec& spec, const Chain& chain) {
  double q = 1.0;
  for (const auto& task : chain.tasks) {
    q = spec.qualityComposition == QualityComposition::Minimum
            ? std::min(q, task.quality)
            : q * task.quality;
  }
  return q;
}

bool sameQuality(double a, double b) { return std::fabs(a - b) <= 1e-9; }

/// Checks one chain's placements against its spec, counted from `release`.
void checkPlacements(const std::string& who, const TunableJobSpec& spec,
                     std::size_t chainIndex,
                     const std::vector<TaskPlacement>& placements,
                     Time release, Violations& v) {
  if (chainIndex >= spec.chains.size()) {
    v.add(who + ": chain " + std::to_string(chainIndex) + " was not offered");
    return;
  }
  const Chain& chain = spec.chains[chainIndex];
  if (placements.size() != chain.tasks.size()) {
    v.add(who + ": " + std::to_string(placements.size()) +
          " placements for " + std::to_string(chain.tasks.size()) + " tasks");
    return;
  }
  Time previousEnd = release;
  for (std::size_t t = 0; t < chain.tasks.size(); ++t) {
    const auto& task = chain.tasks[t];
    const auto& p = placements[t];
    const std::string at = who + " task " + std::to_string(t);
    if (p.processors != task.request.processors) {
      v.add(at + ": width " + std::to_string(p.processors) + " != request " +
            std::to_string(task.request.processors));
    }
    if (p.interval.end - p.interval.begin != task.request.duration) {
      v.add(at + ": length differs from the requested duration");
    }
    if (p.interval.begin < previousEnd) {
      v.add(at + ": starts before its release or its predecessor's end");
    }
    if (task.relativeDeadline < kTimeInfinity &&
        p.interval.end > release + task.relativeDeadline) {
      v.add(at + ": ends after its deadline");
    }
    previousEnd = p.interval.end;
  }
}

}  // namespace

CheckerResult checkOutputs(const CheckerInput& input) {
  CheckerResult result;
  Violations v;
  const Stream& stream = *input.stream;

  struct Current {
    const Job* job = nullptr;
    std::size_t chainIndex = 0;
    double quality = 0.0;
    Time release = 0;
    std::vector<TaskPlacement> placements;
    bool cancelled = false;
  };
  std::unordered_map<std::uint64_t, Current> admitted;

  for (const auto& record : input.negotiations) {
    if (record.jobIndex >= stream.jobs.size()) {
      v.add("negotiation for a job the stream does not hold");
      continue;
    }
    if (!record.admitted) continue;
    const Job& job = stream.jobs[record.jobIndex];
    const std::string who = "job " + std::to_string(record.jobId);
    checkPlacements(who, job.spec, record.chainIndex, record.placements,
                    record.release, v);
    if (record.chainIndex < job.spec.chains.size() &&
        !sameQuality(record.quality,
                     chainQuality(job.spec,
                                  job.spec.chains[record.chainIndex]))) {
      v.add(who + ": quality differs from the granted chain's");
    }
    if (job.tenant >= 0 &&
        record.quality <
            stream.tenantFloors[static_cast<std::size_t>(job.tenant)]) {
      v.add(who + ": quality below its tenant's floor");
    }
    if (!admitted
             .emplace(record.jobId,
                      Current{&job, record.chainIndex, record.quality,
                              record.release, record.placements,
                              record.cancelled})
             .second) {
      v.add(who + ": admitted twice");
    }
  }

  for (const auto& move : input.reshapes) {
    const std::string who = "reshape of job " + std::to_string(move.jobId);
    auto it = admitted.find(move.jobId);
    if (it == admitted.end()) {
      v.add(who + ": the job was never admitted");
      continue;
    }
    Current& current = it->second;
    const TunableJobSpec& spec = current.job->spec;
    if (move.fromChain != current.chainIndex ||
        !sameQuality(move.fromQuality, current.quality)) {
      v.add(who + ": does not start from the job's current chain (" +
            std::to_string(move.fromChain) + "/" +
            std::to_string(move.fromQuality) + " -> " +
            std::to_string(move.toChain) + ", current " +
            std::to_string(current.chainIndex) + "/" +
            std::to_string(current.quality) + ")");
    }
    if (move.toChain >= spec.chains.size()) {
      v.add(who + ": lands on a chain the job did not offer");
      continue;
    }
    const double toQuality = chainQuality(spec, spec.chains[move.toChain]);
    if (!sameQuality(move.toQuality, toQuality)) {
      v.add(who + ": quality differs from the target chain's");
    }
    if (move.promotion != (toQuality > current.quality)) {
      v.add(who + ": direction disagrees with the quality change");
    }
    if (current.job->tenant >= 0 &&
        toQuality <
            stream.tenantFloors[static_cast<std::size_t>(current.job->tenant)]) {
      v.add(who + ": drops below its tenant's floor");
    }
    checkPlacements(who, spec, move.toChain, move.placements, current.release,
                    v);
    current.chainIndex = move.toChain;
    current.quality = toQuality;
    current.placements = move.placements;
    ++result.reshapesApplied;
  }

  // Processor x time sweep: +width at each start, -width at each end; ends
  // sort before starts at the same instant (intervals are half-open).
  std::vector<std::pair<Time, int>> events;
  for (const auto& [id, current] : admitted) {
    if (current.cancelled) continue;
    ++result.liveJobs;
    result.qualitySum += current.quality;
    for (const auto& p : current.placements) {
      events.emplace_back(p.interval.begin, p.processors);
      events.emplace_back(p.interval.end, -p.processors);
      result.liveAreaUnits +=
          static_cast<double>(p.processors) *
          static_cast<double>(p.interval.end - p.interval.begin) /
          static_cast<double>(tprm::kTicksPerUnit);
    }
  }
  std::sort(events.begin(), events.end());
  int inUse = 0;
  for (const auto& [time, delta] : events) {
    inUse += delta;
    if (inUse > input.processors) {
      v.add("usage " + std::to_string(inUse) + " exceeds the machine's " +
            std::to_string(input.processors) + " processors at tick " +
            std::to_string(time));
      break;
    }
  }

  result.ok = v.empty();
  result.errors = v.take();
  return result;
}

bool checkerSelfTest(std::string* why) {
  using tprm::ticksFromUnits;
  Stream stream;
  for (std::size_t i = 0; i < 2; ++i) {
    Job job;
    job.index = i;
    job.spec.name = "selftest-" + std::to_string(i);
    Chain chain;
    chain.tasks = {
        tprm::task::TaskSpec::rigid("a", 3, ticksFromUnits(10),
                                    ticksFromUnits(20)),
        tprm::task::TaskSpec::rigid("b", 2, ticksFromUnits(5),
                                    ticksFromUnits(30)),
    };
    job.spec.chains.push_back(chain);
    stream.jobs.push_back(job);
  }
  const auto place = [](double begin, double end, int width) {
    return TaskPlacement{{ticksFromUnits(begin), ticksFromUnits(end)}, width,
                         kTimeInfinity};
  };
  CheckerInput valid;
  valid.processors = 4;
  valid.stream = &stream;
  for (std::size_t i = 0; i < 2; ++i) {
    NegotiationRecord record;
    record.jobIndex = i;
    record.jobId = i;
    record.admitted = true;
    record.quality = 1.0;
    valid.negotiations.push_back(record);
  }
  // Job 0 runs first; job 1, released at 15, follows (3 + 3 > 4).
  valid.negotiations[0].placements = {place(0, 10, 3), place(10, 15, 2)};
  valid.negotiations[1].release = ticksFromUnits(15);
  valid.negotiations[1].placements = {place(15, 25, 3), place(25, 30, 2)};
  if (!checkOutputs(valid).ok) {
    *why = "the checker rejects a valid schedule";
    return false;
  }

  CheckerInput overCapacity = valid;
  overCapacity.negotiations[1].placements = {place(5, 15, 3),
                                             place(15, 20, 2)};
  if (checkOutputs(overCapacity).ok) {
    *why = "the checker accepts 6 processors in use on a 4-processor machine";
    return false;
  }

  CheckerInput pastDeadline = valid;
  pastDeadline.negotiations[1].release = 0;
  pastDeadline.negotiations[1].placements = {place(21, 31, 3),
                                             place(31, 36, 2)};
  if (checkOutputs(pastDeadline).ok) {
    *why = "the checker accepts a task that ends after its deadline";
    return false;
  }
  return true;
}

}  // namespace perfbench
