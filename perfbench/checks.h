// Output checks shared by the workloads.  The benchmark counts a wrong
// output as a failed operation; `sim` is used here only as the checker.
#ifndef EBLOCKS_PERFBENCH_CHECKS_H_
#define EBLOCKS_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "core/network.h"
#include "partition/result.h"

namespace perfbench {

/// Stimulus scripts per behavioural check (the Table-1 designs all pass
/// at this count) and random events per script.
inline constexpr int kCheckScripts = 256;
inline constexpr int kCheckEvents = 16;

struct BehaviourVerdict {
  enum class Kind {
    kEquivalent,
    /// Transient capture (docs/verification.md, "Known limitation:
    /// transient capture"): merging changes packet delays, and a
    /// level- or edge-sensitive block downstream latches a transient
    /// that exists under only one delay assignment.  kTransientLatch is
    /// the documented shape -- the diverging output lies downstream of
    /// a toggle, trip or trip_reset that some block reaches along paths
    /// of unequal hop count.  kTransientOther is any other divergence
    /// downstream of a stateful block (a pulse_N, prolong_N or delay_N
    /// edge, or a power-up transient).  Both are reported as their own
    /// counts on generated designs, never hidden and never failures.
    kTransientLatch,
    kTransientOther,
    /// A wrong output: any divergence on the paper's designs, and on
    /// generated designs one with no stateful block upstream (settled
    /// values of combinational logic do not depend on delays).
    kDiverged,
  };
  Kind kind = Kind::kEquivalent;
  std::string detail;
};

/// Runs kCheckScripts seeded random scripts through
/// sim::batchCheckEquivalence and classifies a divergence.
BehaviourVerdict checkBehaviour(const eblocks::Network& source,
                                const eblocks::Network& synthesized,
                                std::uint32_t seed, bool generated);

/// Tallies of BehaviourVerdict kinds over a workload's outputs.
struct DivergenceCount {
  std::uint64_t checked = 0, latch = 0, other = 0;
  /// Counts `v`; the first few transient divergences get a note.
  void count(const BehaviourVerdict& v, const std::string& label);
  /// One stdout line with the tallies.
  void print() const;
};

/// A PartitionRun frame with the wall-clock field zeroed, so runs of the
/// same search compare byte for byte.
std::string runBytesModuloTime(eblocks::partition::PartitionRun run);

}  // namespace perfbench

#endif  // EBLOCKS_PERFBENCH_CHECKS_H_
