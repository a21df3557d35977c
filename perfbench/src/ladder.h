// The layer ladder: one workload's own stream pushed through stacks that
// each add one layer, with a span around every call into the layer.
//
//   sched          GreedyArbitrator::admit on a bare AvailabilityProfile
//   qos            QoSArbitrator::submit / cancel (ledger, clock, retire);
//                  its ProfileMetrics give the resource.* counts
//   qos.sharded    ShardedArbitrator::submit (spill, gang; the Reshaper too
//                  when the workload is elastic)
//   elastic        QoSArbitrator with elastic::Reshaper
//   service.protocol  encode/decode of the stream's own requests and of the
//                  responses the qos rung produced
//   net            FrameDecoder on those frames, and a Socket echo of them
//   service        one unpaced agent against the in-process server: v1 with
//                  observability on and off, and v2 one request at a time
//
// The rungs use only the library's public surfaces; the command handoff is
// measured only inside service.unattributed_us_p50.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Runs every rung over `stream` and returns the per-layer metrics by name.
/// Failures (a codec round trip that changes a message, a server that does
/// not start) are appended to `errors`.
[[nodiscard]] std::map<std::string, double> runLadder(
    const WorkloadConfig& config, const Stream& stream,
    const std::string& socketPath, SpanLog& spans,
    std::vector<std::string>* errors);

}  // namespace perfbench
