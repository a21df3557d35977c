#include "loadgen.h"


#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

namespace svc = tprm::service;

/// In-flight window a v2 agent asks for in HELLO.
constexpr std::uint32_t kV2Window = 16;

/// Lets sleeps end on time instead of up to the default 50 us timer slack
/// late; affects only the calling thread.
void tightenTimerSlack() { (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void sleepUntilNs(std::int64_t t) {
  if (t > nowNs()) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(t)));
  }
}

double usBetween(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e3;
}

NegotiationRecord toRecord(const Job& job, int agent,
                           const svc::NegotiateResult& result) {
  NegotiationRecord record;
  record.jobIndex = job.index;
  record.agent = agent;
  record.admitted = result.admitted;
  record.jobId = result.jobId;
  record.arrivalSeq = result.arrivalSeq;
  record.chainIndex = result.chainIndex;
  record.quality = result.quality;
  record.release = result.release;
  record.placements = result.placements;
  return record;
}

struct AgentOutput {
  std::vector<NegotiationRecord> negotiations;
  std::vector<double> latencyUs;
  std::vector<double> lagUs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t busyRetries = 0;
  std::vector<std::string> errors;
  std::int64_t endNs = 0;

  void fail(const std::string& what, const svc::ClientError& error) {
    ++failed;
    if (errors.size() < 4) {
      errors.push_back(what + ": " + svc::toString(error.status) + " " +
                       error.message);
    }
  }
};

bool cancelDue(const WorkloadConfig& config, int agent,
               std::uint64_t* admits) {
  return config.cancels(agent) &&
         ++*admits % static_cast<std::uint64_t>(config.cancelEvery) == 0;
}

void runV1Agent(svc::QoSAgentClient& client, int agent,
                const std::vector<const Job*>& jobs,
                const WorkloadConfig& config, bool paced,
                std::int64_t startNs, SpanLog& spans, AgentOutput& out) {
  tightenTimerSlack();
  const auto negotiateSpan = spans.intern("agent.v1.negotiate");
  const auto cancelSpan = spans.intern("agent.v1.cancel");
  std::uint64_t admits = 0;
  sleepUntilNs(startNs);
  std::int64_t freeAt = startNs;
  for (const Job* job : jobs) {
    const std::int64_t due = startNs + job->dueNs;
    if (paced) sleepUntilNs(due);
    const std::int64_t send = nowNs();
    const auto decision = client.negotiate(job->spec, job->release);
    const std::int64_t done = nowNs();
    ++out.attempted;
    spans.record(negotiateSpan, job->index, send, done);
    if (!decision.ok()) {
      out.fail("NEGOTIATE", decision.error);
      freeAt = done;
      continue;
    }
    ++out.decisions;
    if (paced) {
      out.latencyUs.push_back(usBetween(due, done));
      out.lagUs.push_back(usBetween(std::max(due, freeAt), send));
    }
    NegotiationRecord record = toRecord(*job, agent, *decision);
    if (decision->admitted && cancelDue(config, agent, &admits)) {
      const std::int64_t begin = nowNs();
      const auto cancelled = client.cancel(decision->jobId);
      ++out.attempted;
      spans.record(cancelSpan, job->index, begin, nowNs());
      if (cancelled.ok()) {
        ++out.decisions;
        record.cancelled = true;
      } else {
        out.fail("CANCEL", cancelled.error);
      }
    }
    out.negotiations.push_back(std::move(record));
    freeAt = nowNs();
  }
  out.endNs = nowNs();
}

/// v2 agent: this thread submits on schedule while a collector thread takes
/// the responses in submission order, retries BUSY, and issues the cancels.
void runV2Agent(svc::PipelinedClient& client, int agent,
                const std::vector<const Job*>& jobs,
                const WorkloadConfig& config, bool paced,
                std::int64_t startNs, SpanLog& spans, AgentOutput& out) {
  struct Pending {
    const Job* job = nullptr;
    std::int64_t due = 0;
    std::int64_t send = 0;
    svc::PipelinedClient::ResponseFuture future;
  };
  const auto submitSpan = spans.intern("agent.v2.submit");
  const auto negotiateSpan = spans.intern("agent.v2.negotiate");
  const auto cancelSpan = spans.intern("agent.v2.cancel");

  std::mutex mu;
  std::condition_variable ready;
  std::deque<Pending> queue;  // guarded by mu
  bool senderDone = false;    // guarded by mu

  tightenTimerSlack();
  std::thread collector([&] {
    struct CancelInFlight {
      std::size_t record = 0;
      std::uint64_t jobId = 0;
      std::int64_t send = 0;
      svc::PipelinedClient::ResponseFuture future;
    };
    std::deque<CancelInFlight> cancels;
    std::uint64_t admits = 0;
    const auto harvestCancel = [&](CancelInFlight item) {
      auto response = item.future.get();
      while (!response.ok() && response.error.status == svc::ClientStatus::Busy) {
        ++out.busyRetries;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        response = client.cancelAsync(item.jobId).get();
      }
      ++out.attempted;
      spans.record(cancelSpan, item.jobId, item.send, nowNs());
      const auto cancelled =
          svc::extractResult<svc::CancelResult>(std::move(response));
      if (cancelled.ok()) {
        ++out.decisions;
        out.negotiations[item.record].cancelled = true;
      } else {
        out.fail("CANCEL", cancelled.error);
      }
    };
    while (true) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready.wait(lock, [&] { return !queue.empty() || senderDone; });
        if (queue.empty()) break;
        item = std::move(queue.front());
        queue.pop_front();
      }
      auto response = item.future.get();
      while (!response.ok() && response.error.status == svc::ClientStatus::Busy) {
        ++out.busyRetries;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        response =
            client.negotiateAsync(item.job->spec, item.job->release).get();
      }
      const std::int64_t done = nowNs();
      ++out.attempted;
      spans.record(negotiateSpan, item.job->index, item.send, done);
      const auto decision =
          svc::extractResult<svc::NegotiateResult>(std::move(response));
      if (!decision.ok()) {
        out.fail("NEGOTIATE", decision.error);
        continue;
      }
      ++out.decisions;
      if (paced) out.latencyUs.push_back(usBetween(item.due, done));
      out.negotiations.push_back(toRecord(*item.job, agent, *decision));
      if (decision->admitted && cancelDue(config, agent, &admits)) {
        cancels.push_back(CancelInFlight{out.negotiations.size() - 1,
                                         decision->jobId, nowNs(),
                                         client.cancelAsync(decision->jobId)});
      }
      while (!cancels.empty() &&
             cancels.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        harvestCancel(std::move(cancels.front()));
        cancels.pop_front();
      }
    }
    while (!cancels.empty()) {
      harvestCancel(std::move(cancels.front()));
      cancels.pop_front();
    }
  });

  sleepUntilNs(startNs);
  std::int64_t freeAt = startNs;
  std::vector<double> lagUs;
  for (const Job* job : jobs) {
    const std::int64_t due = startNs + job->dueNs;
    if (paced) sleepUntilNs(due);
    const std::int64_t send = nowNs();
    auto future = client.negotiateAsync(job->spec, job->release);
    const std::int64_t submitted = nowNs();
    spans.record(submitSpan, job->index, send, submitted);
    if (paced) lagUs.push_back(usBetween(std::max(due, freeAt), send));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(Pending{job, due, send, std::move(future)});
    }
    ready.notify_one();
    freeAt = submitted;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    senderDone = true;
  }
  ready.notify_one();
  collector.join();
  out.lagUs = std::move(lagUs);
  out.endNs = nowNs();
}

ReshapeRecord toRecord(const svc::ReshapeEvent& event) {
  ReshapeRecord record;
  record.jobId = event.jobId;
  record.promotion = event.promotion;
  record.fromChain = event.fromChain;
  record.toChain = event.toChain;
  record.fromQuality = event.fromQuality;
  record.toQuality = event.toQuality;
  record.placements = event.placements;
  return record;
}

}  // namespace

std::unique_ptr<Session> Session::open(const WorkloadConfig& config,
                                       const std::string& socketPath,
                                       bool observability,
                                       std::string* error) {
  std::unique_ptr<Session> session(new Session());
  session->config_ = config;
  svc::ServerConfig serverConfig;
  serverConfig.processors = config.processors;
  serverConfig.shards = config.shards;
  // Spill stays off: with a ReshapePolicy it lets RESHAPED pushes of one job
  // arrive out of order (see README).
  serverConfig.shardSpill = false;
  serverConfig.shardGang = config.gang;
  serverConfig.unixPath = socketPath;
  serverConfig.observability = observability;
  if (config.elastic) {
    session->reshaper_.emplace(tprm::elastic::VictimPolicy::MinQualityLoss);
    serverConfig.reshapePolicy = &*session->reshaper_;
  }
  session->server_ = std::make_unique<svc::NegotiationServer>(serverConfig);
  if (!session->server_->start(error)) return nullptr;

  svc::ClientConfig clientConfig;
  clientConfig.unixPath = socketPath;
  const std::size_t agents = config.agents.size();
  session->v1_.resize(agents);
  session->v2_.resize(agents);
  for (std::size_t a = 0; a < agents; ++a) {
    std::optional<svc::ClientError> failure;
    if (config.agents[a] == Wire::V1) {
      session->v1_[a] = std::make_unique<svc::QoSAgentClient>(clientConfig);
      failure = session->v1_[a]->connect();
    } else {
      session->v2_[a] =
          std::make_unique<svc::PipelinedClient>(clientConfig, kV2Window);
      failure = session->v2_[a]->connect();
    }
    if (failure) {
      *error = "agent " + std::to_string(a) + " connect: " + failure->message;
      return nullptr;
    }
  }
  return session;
}

Session::~Session() {
  for (auto& client : v2_) {
    if (client) client->close();
  }
  for (auto& client : v1_) {
    if (client) client->close();
  }
  if (server_) server_->stop();
}

PhaseResult runPhase(Session& session, const Stream& stream, bool paced,
                     SpanLog& spans) {
  const WorkloadConfig& config = session.config();
  const std::size_t agents = config.agents.size();
  std::vector<std::vector<const Job*>> perAgent(agents);
  for (const auto& job : stream.jobs) {
    perAgent[static_cast<std::size_t>(job.agent)].push_back(&job);
  }

  std::vector<AgentOutput> outputs(agents);
  // Every agent starts on the same instant, a little ahead so that all
  // threads are up before the first request is due.
  const std::int64_t startNs = nowNs() + 5'000'000;
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < agents; ++a) {
    threads.emplace_back([&, a] {
      const int agent = static_cast<int>(a);
      if (config.agents[a] == Wire::V1) {
        runV1Agent(*session.v1(a), agent, perAgent[a], config, paced, startNs,
                   spans, outputs[a]);
      } else {
        runV2Agent(*session.v2(a), agent, perAgent[a], config, paced, startNs,
                   spans, outputs[a]);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  PhaseResult result;
  std::int64_t endNs = startNs;
  for (auto& out : outputs) {
    endNs = std::max(endNs, out.endNs);
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.decisions += out.decisions;
    result.busyRetries += out.busyRetries;
    for (auto& record : out.negotiations) {
      result.negotiations.push_back(std::move(record));
    }
    result.negotiateLatencyUs.insert(result.negotiateLatencyUs.end(),
                                     out.latencyUs.begin(),
                                     out.latencyUs.end());
    result.generatorLagUs.insert(result.generatorLagUs.end(),
                                 out.lagUs.begin(), out.lagUs.end());
    result.errors.insert(result.errors.end(), out.errors.begin(),
                         out.errors.end());
  }
  result.elapsedSec = static_cast<double>(endNs - startNs) / 1e9;

  // A VERIFY on every connection: the final ledger audit, and on v2 a round
  // trip that comes back after every RESHAPED push queued before it.
  result.verifyOk = true;
  for (std::size_t a = 0; a < agents; ++a) {
    ++result.attempted;
    const auto verify =
        config.agents[a] == Wire::V1
            ? session.v1(a)->verify()
            : svc::extractResult<svc::VerifyResult>(
                  session.v2(a)->verifyAsync().get());
    if (!verify.ok()) {
      ++result.failed;
      result.verifyOk = false;
      result.errors.push_back("VERIFY: " + verify.error.message);
    } else if (!verify->ok) {
      result.verifyOk = false;
      result.errors.push_back("VERIFY: " + verify->firstViolation);
    }
  }

  // Every dispatched move must reach the benchmark; the pushes can trail the
  // VERIFY response by a few instructions on another loop thread.
  std::vector<std::vector<ReshapeRecord>> moves(agents);
  std::size_t received = 0;
  const std::int64_t giveUp = nowNs() + 500'000'000;
  while (true) {
    for (std::size_t a = 0; a < agents; ++a) {
      if (config.agents[a] != Wire::V2) continue;
      for (const auto& event : session.v2(a)->drainReshapeEvents()) {
        moves[a].push_back(toRecord(event));
        ++received;
      }
    }
    result.counters = session.server().counters();
    if (received >= result.counters.reshapeEventsDispatched ||
        nowNs() > giveUp) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (received != result.counters.reshapeEventsDispatched) {
    result.errors.push_back(
        "received " + std::to_string(received) + " of " +
        std::to_string(result.counters.reshapeEventsDispatched) +
        " dispatched reshape events");
  }
  for (auto& list : moves) {
    for (auto& move : list) result.reshapes.push_back(std::move(move));
  }
  return result;
}

}  // namespace perfbench
