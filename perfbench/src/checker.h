// Output checker, written apart from the library: it reads only the specs
// the benchmark generated and what came back on the wire, and recomputes
// every property from scratch (no profile, ledger or arbitrator code).
//
//  * a processor x time sweep over the final placements of every job still
//    admitted (cancelled jobs dropped, reshaped jobs at their latest
//    RESHAPED placements) never exceeds the machine;
//  * every task lies inside its window, counted from the release the
//    response reports, with the task's own duration;
//  * tasks of a chain run in order, and widths equal the chain's requests;
//  * quality equals the chain's quality, and tenant floors hold;
//  * every reshape move starts from the job's current chain and lands on an
//    offered chain.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct CheckerInput {
  int processors = 0;
  const Stream* stream = nullptr;
  std::vector<NegotiationRecord> negotiations;
  /// In the order each owning agent received them.
  std::vector<ReshapeRecord> reshapes;
};

struct CheckerResult {
  bool ok = true;
  std::vector<std::string> errors;  // first few violations
  /// Totals over the jobs still admitted after every move.
  std::size_t liveJobs = 0;
  double liveAreaUnits = 0.0;  // processor x paper unit
  double qualitySum = 0.0;
  std::size_t reshapesApplied = 0;
};

[[nodiscard]] CheckerResult checkOutputs(const CheckerInput& input);

/// Feeds the checker a valid two-job schedule and two doctored copies (over
/// capacity, past a deadline).  True iff it accepts the first and rejects
/// both doctored ones.
[[nodiscard]] bool checkerSelfTest(std::string* why);

}  // namespace perfbench
