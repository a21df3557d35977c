// The benchmark's workloads and their seeded request streams.
//
//   flash-v1        the `flash-crowd` scenario preset at 1 shard, four v1
//                   agents, no cancels: wire, event loop and handoff bound.
//   deep-v2         single-chain four-task jobs with far deadlines that never
//                   retire, 64 processors, 1 shard, four v2 agents, a cancel
//                   of every third admission: profile-search bound.
//   tenants-elastic the `multi-tenant` preset at three times its base rate,
//                   4 shards with gang and the min-quality-loss Reshaper
//                   (spill off); one v1 agent carries the gold tenant, three
//                   v2 agents the others, and each v2 agent cancels every
//                   fourth admission.
//
// The gold tenant's floor (0.9) leaves its jobs a single chain, so the
// elastic layer can never move them.  That is why the v1 agent carries gold:
// a v1 connection receives no RESHAPED pushes, and the checker needs every
// move of every job it sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Workload definition scaled to a run of `seconds` seconds; nullopt for an
/// unknown name.
[[nodiscard]] std::optional<WorkloadConfig> workloadByName(
    const std::string& name, double seconds);

/// Which phase a stream feeds: the seed is split so the paced and the
/// unpaced stream are independent.
enum class Phase { Paced, Unpaced };

/// The stream a phase of `config` sends, a pure function of the arguments.
[[nodiscard]] Stream generateStream(const WorkloadConfig& config,
                                    std::uint64_t seed, Phase phase);

}  // namespace perfbench
