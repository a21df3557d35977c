// Shared types of the tprmd benchmark: the generated request streams, the
// per-phase records the checker reads, quantiles, and the in-memory span log.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.h"
#include "sched/arbitrator.h"
#include "taskmodel/chain.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Wire { V1, V2 };

/// One NEGOTIATE of a generated stream.  Cancels are not part of the stream:
/// an agent cancels every `cancelEvery`-th job it gets admitted, right after
/// the admission, because the job id is only known then.
struct Job {
  std::size_t index = 0;
  tprm::task::TunableJobSpec spec;
  /// Release sent on the wire (paper time, ticks).
  tprm::Time release = 0;
  /// Paced phase: when the request is due, in ns after the phase starts.
  std::int64_t dueNs = 0;
  int agent = 0;
  /// Tenant index, or -1 for single-tenant streams.
  int tenant = -1;
};

struct Stream {
  std::vector<Job> jobs;
  /// Quality floor per tenant (empty for single-tenant streams).
  std::vector<double> tenantFloors;
};

/// Everything that defines a workload: the server it talks to, its agents
/// and the shape and size of its streams.
struct WorkloadConfig {
  std::string name;
  int processors = 32;
  int shards = 1;
  bool gang = false;
  bool elastic = false;
  /// One entry per agent connection.
  std::vector<Wire> agents;
  /// Each v2 agent cancels every n-th admission it gets (0 = never).
  int cancelEvery = 0;
  /// Jobs in the paced and in the unpaced stream, and how many rounds of
  /// each a run sends (every round on a fresh server).
  std::size_t pacedJobs = 0;
  std::size_t unpacedJobs = 0;
  int rounds = 15;
  /// Paced arrivals per second of wall time at the stream's base rate.
  double pacedRatePerSec = 1000.0;

  /// True when agent `agent` cancels some of its admissions.  v1 agents
  /// never do: in tenants-elastic the v1 agent carries every gang job, and
  /// a gang cancel moves jobs on other shards (see README).
  [[nodiscard]] bool cancels(int agent) const {
    return cancelEvery > 0 &&
           agents[static_cast<std::size_t>(agent)] == Wire::V2;
  }
};

/// One NEGOTIATE as the agent saw it.
struct NegotiationRecord {
  std::size_t jobIndex = 0;
  int agent = 0;
  bool admitted = false;
  std::uint64_t jobId = 0;
  std::uint64_t arrivalSeq = 0;
  std::size_t chainIndex = 0;
  double quality = 0.0;
  tprm::Time release = 0;
  std::vector<tprm::sched::TaskPlacement> placements;
  bool cancelled = false;
};

/// One RESHAPED push as a v2 agent received it.
struct ReshapeRecord {
  std::uint64_t jobId = 0;
  bool promotion = false;
  std::size_t fromChain = 0;
  std::size_t toChain = 0;
  double fromQuality = 0.0;
  double toQuality = 0.0;
  std::vector<tprm::sched::TaskPlacement> placements;
};

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Spans recorded around calls into a layer, kept in memory and written out
/// once at the end of the run.  Disabled logs record nothing.
class SpanLog {
 public:
  /// Spans of one request share `request` (the job's index in its stream).
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Id of `name`, registering it on first use.
  std::uint32_t intern(const std::string& name);

  void record(std::uint32_t name, std::uint64_t request,
              std::int64_t startNs, std::int64_t endNs);

  /// Durations in microseconds of every span named `name`.
  [[nodiscard]] std::vector<double> durationsUs(const std::string& name) const;

  /// Writes one line per span: name,request,start_ns,end_ns.
  bool writeCsv(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;  // guarded by mu_
  std::vector<Span> spans_;         // guarded by mu_
};

}  // namespace perfbench
