// tprm_perfbench: one run of one workload against an in-process tprmd.
//
//   tprm_perfbench --workload=flash-v1 --seed=7 --seconds=40 --trace=0
//       [--socket-dir=.bench_build/run] [--trace-out=spans.csv]
//
// A run alternates paced rounds (the paced stream on its absolute schedule)
// and unpaced rounds (the unpaced stream as fast as the windows allow), each
// against a fresh server, and reports medians over the rounds.  Every round
// is checked by the independent checker and ends with a VERIFY; the
// cancel-free flash-v1 rounds are also replayed into a sequential
// QoSArbitrator in arrivalSeq order.  With --trace=1 the same rounds run with
// a span around every agent call, and then the workload's unpaced stream
// climbs the layer ladder.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (every metric by name), errors.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "ladder.h"
#include "loadgen.h"
#include "qos/qos.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socketDir = ".";
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      *error = "expected --name=value, got " + arg;
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "socket-dir") {
      args->socketDir = value;
    } else if (key == "trace-out") {
      args->traceOut = value;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "not a number: " + arg;
      return false;
    }
  }
  if (!(args->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

/// Confines the process, and every thread it starts later, to the last CPU
/// it may use.  Spread over several vCPUs, each request crossed CPUs a few
/// times, and on a virtual machine whose idle vCPUs halt every crossing
/// waited for the host to reschedule a vCPU: latency and throughput then
/// moved by 2-3x from run to run.  On one CPU the threads hand off by
/// context switch and only the host's steal of that CPU remains.
void confineToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(static_cast<std::size_t>(cpu), &one);
      (void)::sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Decisions of a cancel-free 1-shard phase must equal a sequential
/// in-process arbitrator fed the same specs in arrivalSeq order.
bool replayMatches(const WorkloadConfig& config, const Stream& stream,
                   std::vector<NegotiationRecord> records, std::string* why) {
  std::sort(records.begin(), records.end(),
            [](const NegotiationRecord& a, const NegotiationRecord& b) {
              return a.arrivalSeq < b.arrivalSeq;
            });
  tprm::qos::QoSArbitrator replay(config.processors);
  for (const auto& record : records) {
    const auto decision =
        replay.submit(stream.jobs[record.jobIndex].spec, record.release);
    bool match = decision.admitted == record.admitted &&
                 replay.lastJobId() == record.jobId;
    if (match && decision.admitted) {
      match = decision.schedule.chainIndex == record.chainIndex &&
              decision.quality == record.quality &&
              decision.schedule.placements == record.placements;
    }
    if (!match) {
      *why = "replay differs at arrivalSeq " +
             std::to_string(record.arrivalSeq);
      return false;
    }
  }
  return true;
}

struct RunTotals {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void error(const std::string& message) {
    correct = false;
    if (errors.size() < 12) errors.push_back(message);
  }
};

/// Checks one finished phase; returns the checker's totals.
CheckerResult checkPhase(const WorkloadConfig& config, const Stream& stream,
                         const std::string& label, PhaseResult& phase,
                         RunTotals& totals) {
  totals.attempted += phase.attempted;
  totals.failed += phase.failed;
  for (const auto& e : phase.errors) totals.error(label + ": " + e);
  if (!phase.verifyOk) totals.error(label + ": VERIFY failed");
  CheckerInput input;
  input.processors = config.processors;
  input.stream = &stream;
  input.negotiations = phase.negotiations;
  input.reshapes = phase.reshapes;
  auto checked = checkOutputs(input);
  for (const auto& e : checked.errors) totals.error(label + ": " + e);
  if (phase.negotiations.size() + phase.failed < stream.jobs.size()) {
    totals.error(label + ": responses missing");
  }
  if (config.cancelEvery == 0 && !config.elastic && config.shards == 1) {
    std::string why;
    if (!replayMatches(config, stream, phase.negotiations, &why)) {
      totals.error(label + ": " + why);
    }
  }
  return checked;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "tprm_perfbench: %s\n", error.c_str());
    return 2;
  }
  const auto maybeConfig = workloadByName(args.workload, args.seconds);
  if (!maybeConfig) {
    std::fprintf(stderr, "tprm_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& config = *maybeConfig;
  confineToOneCpu();
  RunTotals totals;
  std::map<std::string, double> metrics;

  std::string why;
  if (!checkerSelfTest(&why)) totals.error("checker self-test: " + why);

  SpanLog spans(args.trace);
  int sessionCount = 0;
  const auto socketPath = [&] {
    return args.socketDir + "/" + config.name + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(sessionCount++) +
           ".sock";
  };

  const auto openSession = [&]() {
    auto opened = Session::open(config, socketPath(), true, &error);
    if (!opened) {
      std::fprintf(stderr, "tprm_perfbench: set-up failed: %s\n",
                   error.c_str());
      std::exit(1);
    }
    return opened;
  };

  // A run alternates paced (open-loop) and unpaced rounds, each on a fresh
  // server, and every figure is the median over its rounds.  On a shared
  // host the speed drifts by tens of percent over seconds; alternating
  // spreads both kinds of round over the whole run, so both medians see the
  // same host.
  // Each paced round's set-up (stream generation, server start and agent
  // connects) is one setup_s sample.
  const Stream unpaced = generateStream(config, args.seed, Phase::Unpaced);
  std::vector<double> setupSeconds;
  std::vector<double> p50s, p99s, lagP99s, liveJobs, liveArea, meanQuality;
  std::vector<double> decisionRates;
  std::uint64_t busyRetries = 0;
  std::uint64_t reshapesChecked = 0;
  std::uint64_t busyRejections = 0;
  std::uint64_t commandsExecuted = 0;
  for (int round = 0; round < config.rounds; ++round) {
    const std::int64_t begin = nowNs();
    const Stream paced = generateStream(config, args.seed, Phase::Paced);
    auto session = openSession();
    setupSeconds.push_back(static_cast<double>(nowNs() - begin) / 1e9);
    PhaseResult phase = runPhase(*session, paced, true, spans);
    session.reset();
    const CheckerResult checked =
        checkPhase(config, paced, "paced", phase, totals);
    p50s.push_back(quantile(phase.negotiateLatencyUs, 0.5));
    p99s.push_back(quantile(phase.negotiateLatencyUs, 0.99));
    lagP99s.push_back(quantile(phase.generatorLagUs, 0.99));
    liveJobs.push_back(static_cast<double>(checked.liveJobs));
    liveArea.push_back(checked.liveAreaUnits);
    meanQuality.push_back(checked.liveJobs == 0
                              ? 0.0
                              : checked.qualitySum /
                                    static_cast<double>(checked.liveJobs));
    busyRetries += phase.busyRetries;
    reshapesChecked += checked.reshapesApplied;

    session = openSession();
    phase = runPhase(*session, unpaced, false, spans);
    session.reset();
    (void)checkPhase(config, unpaced, "unpaced", phase, totals);
    decisionRates.push_back(static_cast<double>(phase.decisions) /
                            phase.elapsedSec);
    busyRejections += phase.counters.busyRejections;
    commandsExecuted += phase.counters.commandsExecuted;
    busyRetries += phase.busyRetries;
  }

  metrics["setup_s"] = median(setupSeconds);
  metrics["negotiate_p50_us"] = median(p50s);
  metrics["workload.negotiate_p99_us"] = median(p99s);
  metrics["decisions_per_s"] = median(decisionRates);
  metrics["admitted_jobs"] = median(liveJobs);
  metrics["admitted_area_units"] = median(liveArea);
  metrics["mean_quality"] = median(meanQuality);
  metrics["workload.generator_lag_us_p99"] = median(lagP99s);
  metrics["service.busy_rejections"] = static_cast<double>(busyRejections);
  metrics["service.commands_executed"] = static_cast<double>(commandsExecuted);
  metrics["workload.busy_retries"] = static_cast<double>(busyRetries);
  metrics["workload.reshapes_checked"] = static_cast<double>(reshapesChecked);

  if (args.trace) {
    std::vector<std::string> ladderErrors;
    for (const auto& [name, value] :
         runLadder(config, unpaced, socketPath(), spans, &ladderErrors)) {
      metrics[name] = value;
    }
    for (const auto& e : ladderErrors) totals.error("ladder: " + e);
    if (!args.traceOut.empty() && !spans.writeCsv(args.traceOut)) {
      totals.error("could not write " + args.traceOut);
    }
  }
  metrics["peak_rss_mb"] = peakRssMb();

  std::string line = "{\"correct\": ";
  line += totals.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(totals.attempted);
  line += ", \"failed\": " + std::to_string(totals.failed);
  line += ", \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : metrics) {
    line += separator;
    line += jsonString(name) + ": " + jsonNumber(value);
    separator = ", ";
  }
  line += "}, \"errors\": [";
  separator = "";
  for (const auto& message : totals.errors) {
    line += separator;
    line += jsonString(message);
    separator = ", ";
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  return 0;
}
