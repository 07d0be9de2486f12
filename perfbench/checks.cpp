#include "checks.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <exception>
#include <optional>
#include <vector>

#include "io/binary.h"
#include "sim/batch_equivalence.h"
#include "sim/stimulus.h"

namespace perfbench {

using namespace eblocks;

namespace {

/// Classifies a divergence at output block `output` of a generated
/// design (see BehaviourVerdict::Kind).
BehaviourVerdict::Kind classify(const Network& net,
                                const std::string& output) {
  const std::optional<BlockId> out = net.findBlock(output);
  if (!out) return BehaviourVerdict::Kind::kDiverged;
  const std::vector<BlockId> topo = net.topoOrder();

  // Blocks that reach the diverging output.
  std::vector<char> reaches(net.blockCount(), 0);
  reaches[*out] = 1;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it)
    for (const Connection& c : net.outputsOf(*it))
      if (reaches[c.to.block]) reaches[*it] = 1;

  bool stateful = false;
  for (BlockId latch = 0; latch < net.blockCount(); ++latch) {
    if (!reaches[latch] || !net.block(latch).type->sequential()) continue;
    stateful = true;
    const std::string& type = net.block(latch).type->name();
    if (type != "toggle" && type != "trip" && type != "trip_reset") continue;
    // Shortest and longest hop count from every block to the latch.
    std::vector<int> lo(net.blockCount(), INT_MAX), hi(net.blockCount(), -1);
    lo[latch] = hi[latch] = 0;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      for (const Connection& c : net.outputsOf(*it)) {
        if (hi[c.to.block] < 0) continue;
        lo[*it] = std::min(lo[*it], lo[c.to.block] + 1);
        hi[*it] = std::max(hi[*it], hi[c.to.block] + 1);
      }
      if (hi[*it] >= 0 && lo[*it] != hi[*it])
        return BehaviourVerdict::Kind::kTransientLatch;
    }
  }
  return stateful ? BehaviourVerdict::Kind::kTransientOther
                  : BehaviourVerdict::Kind::kDiverged;
}

}  // namespace

BehaviourVerdict checkBehaviour(const Network& source,
                                const Network& synthesized,
                                std::uint32_t seed, bool generated) {
  BehaviourVerdict v;
  try {
    const std::vector<sim::Stimulus> scripts = sim::randomStimulusCorpus(
        source, kCheckScripts, kCheckEvents, seed);
    const std::optional<sim::Mismatch> mismatch =
        sim::batchCheckEquivalence(source, synthesized, scripts);
    if (!mismatch) return v;
    v.detail = mismatch->describe();
    v.kind = generated ? classify(source, mismatch->output)
                       : BehaviourVerdict::Kind::kDiverged;
  } catch (const std::exception& e) {
    v.kind = BehaviourVerdict::Kind::kDiverged;
    v.detail = e.what();
  }
  return v;
}

void DivergenceCount::count(const BehaviourVerdict& v,
                            const std::string& label) {
  ++checked;
  if (v.kind == BehaviourVerdict::Kind::kTransientLatch) ++latch;
  if (v.kind == BehaviourVerdict::Kind::kTransientOther) ++other;
  if ((v.kind == BehaviourVerdict::Kind::kTransientLatch ||
       v.kind == BehaviourVerdict::Kind::kTransientOther) &&
      latch + other <= 5)
    std::fprintf(stderr, "note: %s: transient-capture divergence: %s\n",
                 label.c_str(), v.detail.c_str());
}

void DivergenceCount::print() const {
  std::printf("transient-capture divergences: %llu latch-shaped, %llu other, "
              "of %llu outputs checked\n",
              static_cast<unsigned long long>(latch),
              static_cast<unsigned long long>(other),
              static_cast<unsigned long long>(checked));
}

std::string runBytesModuloTime(partition::PartitionRun run) {
  run.seconds = 0.0;
  return io::writePartitionRunBinary(run);
}

}  // namespace perfbench
