#include "ladder.h"

#include <sys/socket.h>

#include <memory>
#include <optional>
#include <thread>

#include "elastic/reshaper.h"
#include "loadgen.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "qos/sharded.h"
#include "sched/greedy_arbitrator.h"
#include "service/protocol.h"

namespace perfbench {
namespace {

namespace obs = tprm::obs;
namespace svc = tprm::service;
using tprm::Time;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Pushes the stream through one in-process rung: `submit(job)` returns the
/// admitted job's id (nullopt on rejection); every `cancelEvery`-th admission
/// is cancelled at once, as the agents do.
template <typename Submit, typename Cancel>
void drive(const WorkloadConfig& config, const Stream& stream, SpanLog& spans,
           const std::string& submitName, const std::string& cancelName,
           Submit submit, Cancel cancel) {
  const auto submitSpan = spans.intern(submitName);
  const auto cancelSpan = spans.intern(cancelName);
  std::uint64_t admits = 0;
  for (const auto& job : stream.jobs) {
    const std::int64_t begin = nowNs();
    const std::optional<std::uint64_t> id = submit(job);
    spans.record(submitSpan, job.index, begin, nowNs());
    if (!id || !config.cancels(job.agent) ||
        ++admits % static_cast<std::uint64_t>(config.cancelEvery) != 0) {
      continue;
    }
    const std::int64_t cancelBegin = nowNs();
    cancel(*id);
    spans.record(cancelSpan, job.index, cancelBegin, nowNs());
  }
}

void putLatency(std::map<std::string, double>& out, const SpanLog& spans,
                const std::string& span, const std::string& metric,
                bool withP99) {
  const auto us = spans.durationsUs(span);
  out[metric + "_us_p50"] = quantile(us, 0.5);
  if (withP99) out[metric + "_us_p99"] = quantile(us, 0.99);
}

double busySeconds(const SpanLog& spans, const std::vector<std::string>& names) {
  double us = 0.0;
  for (const auto& name : names) us += sum(spans.durationsUs(name));
  return us / 1e6;
}

void schedRung(const WorkloadConfig& config, const Stream& stream,
               SpanLog& spans, std::map<std::string, double>& out) {
  obs::MetricsRegistry registry;
  auto metrics = obs::ArbitratorMetrics::fromRegistry(registry, "ladder.sched");
  tprm::resource::AvailabilityProfile profile(config.processors);
  tprm::sched::GreedyArbitrator greedy;
  greedy.attachMetrics(&metrics);
  std::vector<std::vector<tprm::sched::TaskPlacement>> placed(
      stream.jobs.size());
  Time clock = 0;
  const auto admitSpan = spans.intern("sched.admit");
  drive(
      config, stream, spans, "sched.step", "sched.release",
      [&](const Job& job) -> std::optional<std::uint64_t> {
        // The arbitrator's clock and horizon, kept outside the admit span.
        if (job.release > clock) {
          clock = job.release;
          profile.discardBefore(clock);
        }
        tprm::task::JobInstance instance{job.index, clock, job.spec};
        const std::int64_t begin = nowNs();
        auto decision = greedy.admit(instance, profile);
        spans.record(admitSpan, job.index, begin, nowNs());
        if (!decision.admitted) return std::nullopt;
        placed[job.index] = std::move(decision.schedule.placements);
        return job.index;
      },
      [&](std::uint64_t index) {
        for (const auto& p : placed[index]) {
          profile.release(p.interval, p.processors);
        }
      });
  putLatency(out, spans, "sched.admit", "sched.admit", true);
  out["sched.busy_s"] = busySeconds(spans, {"sched.admit"});
  out["sched.schedulable_per_evaluated_chain"] =
      ratio(metrics.chainsSchedulable->value(), metrics.chainsEvaluated->value());
}

/// The qos rung also produces the responses the codec rung encodes.
std::vector<svc::NegotiateResult> qosRung(const WorkloadConfig& config,
                                          const Stream& stream, SpanLog& spans,
                                          std::map<std::string, double>& out) {
  obs::MetricsRegistry registry;
  auto metrics = obs::NegotiationMetrics::fromRegistry(registry, "ladder.qos");
  tprm::qos::QoSArbitrator arbitrator(config.processors);
  arbitrator.attachMetrics(&metrics);
  std::vector<svc::NegotiateResult> responses;
  responses.reserve(stream.jobs.size());
  drive(
      config, stream, spans, "qos.submit", "qos.cancel",
      [&](const Job& job) -> std::optional<std::uint64_t> {
        const auto decision = arbitrator.submit(job.spec, job.release);
        svc::NegotiateResult result;
        result.admitted = decision.admitted;
        result.jobId = *arbitrator.lastJobId();
        result.arrivalSeq = job.index;
        result.chainIndex = decision.schedule.chainIndex;
        result.quality = decision.quality;
        result.release = std::max(job.release, arbitrator.clock());
        result.placements = decision.schedule.placements;
        if (decision.admitted) {
          result.bindings = job.spec.chains[result.chainIndex].bindings;
        }
        result.chainsConsidered = decision.chainsConsidered;
        result.chainsSchedulable = decision.chainsSchedulable;
        responses.push_back(result);
        if (!decision.admitted) return std::nullopt;
        return result.jobId;
      },
      [&](std::uint64_t id) { (void)arbitrator.cancel(id); });
  if (config.cancelEvery == 0) {
    // A cancel-free workload still times the cancel path: every third
    // admission is cancelled once the stream is through.
    const auto cancelSpan = spans.intern("qos.cancel");
    std::uint64_t admits = 0;
    for (const auto& response : responses) {
      if (!response.admitted || ++admits % 3 != 0) continue;
      const std::int64_t begin = nowNs();
      (void)arbitrator.cancel(response.jobId);
      spans.record(cancelSpan, response.arrivalSeq, begin, nowNs());
    }
  }
  putLatency(out, spans, "qos.submit", "qos.submit", true);
  putLatency(out, spans, "qos.cancel", "qos.cancel", false);
  out["qos.busy_s"] = busySeconds(spans, {"qos.submit", "qos.cancel"});
  out["qos.ledger_marginal_us_p50"] =
      out["qos.submit_us_p50"] - out["sched.admit_us_p50"];

  const auto negotiations = metrics.negotiations->value();
  const auto& profile = metrics.profile;
  out["resource.fit_probes_per_negotiation"] =
      ratio(profile.fitProbes->value(), negotiations);
  out["resource.segments_scanned_per_negotiation"] =
      ratio(profile.segmentsScanned->value(), negotiations);
  out["resource.holes_scanned_per_negotiation"] =
      ratio(profile.holesScanned->value(), negotiations);
  out["resource.trial_rollbacks_per_negotiation"] =
      ratio(profile.trialRollbacks->value(), negotiations);
  return responses;
}

void shardedRung(const WorkloadConfig& config, const Stream& stream,
                 SpanLog& spans, std::map<std::string, double>& out) {
  obs::MetricsRegistry registry;
  tprm::qos::ShardedOptions options;
  options.shards = config.shards > 1 ? config.shards : 4;
  options.spill = true;
  options.gang = true;
  const tprm::elastic::Reshaper reshaper;
  tprm::qos::ShardedArbitrator arbitrator(config.processors, options);
  std::vector<obs::NegotiationMetrics> perShard;
  perShard.reserve(static_cast<std::size_t>(options.shards));
  std::vector<obs::NegotiationMetrics*> perShardPtrs;
  for (int k = 0; k < options.shards; ++k) {
    perShard.push_back(obs::NegotiationMetrics::fromRegistry(
        registry, "ladder.shard" + std::to_string(k)));
    perShardPtrs.push_back(&perShard.back());
  }
  auto sharded = obs::ShardedMetrics::fromRegistry(registry, "ladder.sharded");
  arbitrator.attachMetrics(perShardPtrs, &sharded);
  if (config.elastic) arbitrator.attachReshapePolicy(&reshaper);
  drive(
      config, stream, spans, "qos.sharded.submit", "qos.sharded.cancel",
      [&](const Job& job) -> std::optional<std::uint64_t> {
        const std::uint64_t id = arbitrator.reserveJobId();
        if (!arbitrator.submit(id, job.spec, job.release).admitted) {
          return std::nullopt;
        }
        return id;
      },
      [&](std::uint64_t id) { (void)arbitrator.cancel(id); });
  putLatency(out, spans, "qos.sharded.submit", "qos.sharded.submit", false);
  out["qos.sharded.spill_admitted_per_attempt"] =
      ratio(sharded.spillAdmitted->value(), sharded.spillAttempts->value());
  out["qos.sharded.gang_admitted_per_attempt"] =
      ratio(sharded.gangAdmitted->value(), sharded.gangAttempts->value());
  out["qos.sharded.gang_rollbacks"] =
      static_cast<double>(sharded.gangRollbacks->value());
}

void elasticRung(const WorkloadConfig& config, const Stream& stream,
                 SpanLog& spans, std::map<std::string, double>& out) {
  obs::MetricsRegistry registry;
  auto metrics =
      obs::NegotiationMetrics::fromRegistry(registry, "ladder.elastic");
  const tprm::elastic::Reshaper reshaper;
  tprm::qos::QoSArbitrator arbitrator(config.processors);
  arbitrator.attachMetrics(&metrics);
  arbitrator.attachReshapePolicy(&reshaper);
  drive(
      config, stream, spans, "elastic.submit", "elastic.cancel",
      [&](const Job& job) -> std::optional<std::uint64_t> {
        if (!arbitrator.submit(job.spec, job.release).admitted) {
          return std::nullopt;
        }
        return *arbitrator.lastJobId();
      },
      [&](std::uint64_t id) { (void)arbitrator.cancel(id); });
  putLatency(out, spans, "elastic.submit", "elastic.submit", true);
  out["elastic.reshape_admitted_per_attempt"] =
      ratio(metrics.elastic.reshapeAdmitted->value(),
            metrics.elastic.reshapeAttempts->value());
  out["elastic.demotions"] =
      static_cast<double>(metrics.elastic.demotions->value());
  out["elastic.promotions"] =
      static_cast<double>(metrics.elastic.promotions->value());
}

/// Encodes and decodes the stream's requests and the qos rung's responses;
/// returns the encoded frames (requests then responses) for the net rung.
std::vector<std::string> codecRung(const WorkloadConfig& config,
                                   const Stream& stream,
                                   const std::vector<svc::NegotiateResult>&
                                       responses,
                                   SpanLog& spans,
                                   std::map<std::string, double>& out,
                                   std::vector<std::string>* errors) {
  const auto encodeReq = spans.intern("service.protocol.encode_request");
  const auto decodeReq = spans.intern("service.protocol.decode_request");
  const auto encodeResp = spans.intern("service.protocol.encode_response");
  const auto decodeResp = spans.intern("service.protocol.decode_response");
  std::vector<std::string> requestFrames;
  std::vector<std::string> responseFrames;
  double requestBytes = 0.0;
  double responseBytes = 0.0;
  bool intact = true;
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    const Job& job = stream.jobs[i];
    svc::Request request;
    request.id = i + 1;
    request.version = config.agents[static_cast<std::size_t>(job.agent)] ==
                              Wire::V2
                          ? svc::kProtocolVersionV2
                          : svc::kProtocolVersion;
    request.command = svc::Command::Negotiate;
    request.payload = svc::NegotiateRequest{job.spec, job.release};
    std::int64_t t0 = nowNs();
    std::string text = svc::encodeRequest(request);
    std::int64_t t1 = nowNs();
    const auto decoded = svc::decodeRequest(text);
    const std::int64_t t2 = nowNs();
    spans.record(encodeReq, i, t0, t1);
    spans.record(decodeReq, i, t1, t2);
    intact = intact && decoded.ok() &&
             std::get<svc::NegotiateRequest>(decoded.request->payload).spec ==
                 job.spec;
    requestBytes += static_cast<double>(text.size());
    requestFrames.push_back(std::move(text));

    svc::Response response;
    response.id = request.id;
    response.ok = true;
    response.result = responses[i];
    t0 = nowNs();
    text = svc::encodeResponse(response);
    t1 = nowNs();
    const auto decodedResponse = svc::decodeResponse(text);
    const std::int64_t t3 = nowNs();
    spans.record(encodeResp, i, t0, t1);
    spans.record(decodeResp, i, t1, t3);
    intact = intact && decodedResponse.ok() &&
             std::get<svc::NegotiateResult>(decodedResponse.response->result)
                     .placements == responses[i].placements;
    responseBytes += static_cast<double>(text.size());
    responseFrames.push_back(std::move(text));
  }
  if (!intact) errors->push_back("a codec round trip changed a message");
  const double n = static_cast<double>(std::max<std::size_t>(1, stream.jobs.size()));
  out["service.protocol.encode_request_us"] =
      quantile(spans.durationsUs("service.protocol.encode_request"), 0.5);
  out["service.protocol.decode_request_us"] =
      quantile(spans.durationsUs("service.protocol.decode_request"), 0.5);
  out["service.protocol.encode_response_us"] =
      quantile(spans.durationsUs("service.protocol.encode_response"), 0.5);
  out["service.protocol.decode_response_us"] =
      quantile(spans.durationsUs("service.protocol.decode_response"), 0.5);
  out["service.protocol.request_bytes"] = requestBytes / n;
  out["service.protocol.response_bytes"] = responseBytes / n;
  requestFrames.insert(requestFrames.end(),
                       std::make_move_iterator(responseFrames.begin()),
                       std::make_move_iterator(responseFrames.end()));
  return requestFrames;
}

void netRung(const std::vector<std::string>& payloads, SpanLog& spans,
             std::map<std::string, double>& out,
             std::vector<std::string>* errors) {
  namespace net = tprm::net;
  const net::FrameLimits limits;
  const auto decodeSpan = spans.intern("net.decode_frame");
  bool intact = true;
  net::FrameDecoder decoder(limits);
  std::string wire;
  std::string payload;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    wire.clear();
    (void)net::appendFrame(wire, payloads[i], limits);
    const std::int64_t begin = nowNs();
    decoder.feed(wire.data(), wire.size());
    const bool got = decoder.next(&payload);
    spans.record(decodeSpan, i, begin, nowNs());
    intact = intact && got && payload == payloads[i];
  }

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    errors->push_back("socketpair failed");
    return;
  }
  net::Socket near(fds[0]);
  net::Socket far(fds[1]);
  std::thread echo([&far, &limits] {
    while (true) {
      auto frame = net::readFrame(far, limits, net::Deadline::infinite(),
                                  net::Deadline::infinite());
      if (!frame.ok()) break;
      if (!net::writeFrame(far, frame.payload, limits,
                           net::Deadline::infinite())
               .ok()) {
        break;
      }
    }
  });
  const auto roundTripSpan = spans.intern("net.frame_roundtrip");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::int64_t begin = nowNs();
    const bool sent =
        net::writeFrame(near, payloads[i], limits, net::Deadline::infinite())
            .ok();
    const auto back = net::readFrame(near, limits, net::Deadline::infinite(),
                                     net::Deadline::infinite());
    spans.record(roundTripSpan, i, begin, nowNs());
    if (!sent || !back.ok() || back.payload != payloads[i]) {
      intact = false;
      break;
    }
  }
  near.close();
  echo.join();
  if (!intact) errors->push_back("a frame came back changed");
  putLatency(out, spans, "net.frame_roundtrip", "net.frame_roundtrip", true);
  out["net.decode_frame_us"] =
      quantile(spans.durationsUs("net.decode_frame"), 0.5);
}

/// One agent per server, one request at a time, on three servers fed the
/// same stream request by request: v1 with observability on, v1 with it off
/// and v2.  Interleaving puts the three measurements of a request side by
/// side in time, so host drift cancels out of their differences.
void serviceRung(const WorkloadConfig& base, const Stream& stream,
                 const std::string& socketPath, SpanLog& spans,
                 std::map<std::string, double>& out,
                 std::vector<std::string>* errors) {
  struct Leg {
    Wire wire;
    bool observability;
    const char* span;
    std::unique_ptr<Session> session;
    std::uint64_t admits = 0;
    std::uint32_t spanId = 0;
  };
  std::vector<Leg> legs;
  legs.push_back({Wire::V1, true, "service.v1.negotiate", nullptr});
  legs.push_back({Wire::V1, false, "service.v1.negotiate.noobs", nullptr});
  legs.push_back({Wire::V2, true, "service.v2.negotiate", nullptr});
  for (std::size_t i = 0; i < legs.size(); ++i) {
    WorkloadConfig config = base;
    config.agents = {legs[i].wire};
    std::string error;
    legs[i].session = Session::open(config, socketPath + "." + std::to_string(i),
                                    legs[i].observability, &error);
    if (!legs[i].session) {
      errors->push_back("service rung: " + error);
      return;
    }
    legs[i].spanId = spans.intern(legs[i].span);
  }
  bool ok = true;
  for (const auto& job : stream.jobs) {
    for (std::size_t k = 0; k < legs.size(); ++k) {
      // Alternate which leg goes first, so neither always runs cold.
      Leg& leg = legs[(k + job.index) % legs.size()];
      Session& session = *leg.session;
      const std::int64_t begin = nowNs();
      const auto decision =
          leg.wire == Wire::V1
              ? session.v1(0)->negotiate(job.spec, job.release)
              : svc::extractResult<svc::NegotiateResult>(
                    session.v2(0)->negotiateAsync(job.spec, job.release).get());
      spans.record(leg.spanId, job.index, begin, nowNs());
      if (!decision.ok()) {
        ok = false;
        continue;
      }
      if (decision->admitted && base.cancels(job.agent) &&
          ++leg.admits % static_cast<std::uint64_t>(base.cancelEvery) == 0) {
        ok = ok && (leg.wire == Wire::V1
                        ? session.v1(0)->cancel(decision->jobId).ok()
                        : session.v2(0)->cancelAsync(decision->jobId).get().ok());
      }
    }
  }
  if (!ok) errors->push_back("service rung: a request failed");
  const double v1On = quantile(spans.durationsUs("service.v1.negotiate"), 0.5);
  out["service.roundtrip_v1_us_p50"] = v1On;
  out["service.roundtrip_v2_us_p50"] =
      quantile(spans.durationsUs("service.v2.negotiate"), 0.5);
  out["service.obs_cost_us_p50"] =
      v1On - quantile(spans.durationsUs("service.v1.negotiate.noobs"), 0.5);
  // The rungs below a v1 round trip: the arbitrator the server runs, the
  // four codec calls and one frame round trip.  What is left is the event
  // loop, the handoff to the shard worker and the thread crossings.
  const double arbitrator = base.shards > 1 ? out["qos.sharded.submit_us_p50"]
                                            : out["qos.submit_us_p50"];
  out["service.unattributed_us_p50"] =
      v1On - arbitrator - out["service.protocol.encode_request_us"] -
      out["service.protocol.decode_request_us"] -
      out["service.protocol.encode_response_us"] -
      out["service.protocol.decode_response_us"] -
      out["net.frame_roundtrip_us_p50"];
}

}  // namespace

std::map<std::string, double> runLadder(const WorkloadConfig& config,
                                        const Stream& stream,
                                        const std::string& socketPath,
                                        SpanLog& spans,
                                        std::vector<std::string>* errors) {
  std::map<std::string, double> out;
  schedRung(config, stream, spans, out);
  const auto responses = qosRung(config, stream, spans, out);
  shardedRung(config, stream, spans, out);
  elasticRung(config, stream, spans, out);
  const auto frames = codecRung(config, stream, responses, spans, out, errors);
  netRung(frames, spans, out, errors);

  serviceRung(config, stream, socketPath, spans, out, errors);
  return out;
}

}  // namespace perfbench
