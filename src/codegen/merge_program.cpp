#include "codegen/merge_program.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "behavior/merge.h"
#include "behavior/rename.h"
#include "codegen/level_order.h"

namespace eblocks::codegen {

namespace {

// `prefix` followed by `n` in decimal.  Names are built by appending:
// GCC 12 at -O3 raises false -Wrestrict warnings on inlined
// `"literal" + std::string` chains.
std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

// "<prefix><block>_<port>".
std::string endpointName(std::string_view prefix, Endpoint e) {
  std::string name = numbered(prefix, e.block);
  name += '_';
  name += std::to_string(e.port);
  return name;
}

std::string wireName(Endpoint e) { return endpointName("w", e); }

// Snapshot copy of a wire, refreshed after its producer runs on non-tick
// passes only.  Members read snapshots so that, during a tick pass, every
// member sees its inputs as they were *before* the tick -- matching the
// original network, where a tick reaches all blocks before any of its
// effects can propagate as packets.  The cascade pass (tick == 0) that
// follows a tick refreshes the snapshots inline, so packet-style
// propagation is single-pass exact.
std::string snapName(Endpoint e) { return endpointName("ws", e); }

}  // namespace

MergedProgram mergePartitionProgram(const Network& net,
                                    const BitSet& partition,
                                    const std::vector<int>& levels,
                                    CountingMode mode) {
  MergedProgram merged;
  merged.members = levelOrder(partition, levels);

  // --- assign input ports -------------------------------------------------
  // Iterate members in id order (deterministic), their input ports in
  // order, and allocate programmable input ports for externally-driven
  // connections.  In kSignals mode connections sharing the same external
  // source endpoint share a port.
  std::map<Connection, int> inPortOfConnection;
  {
    std::map<Endpoint, int> portOfSource;  // kSignals only
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.inputCount(); ++p) {
        const auto driver = net.driverOf(b, p);
        if (!driver)
          throw CodegenError("mergePartitionProgram: input '" +
                             t.inputName(p) + "' of '" + net.block(b).name +
                             "' is not driven");
        if (partition.test(driver->from.block)) continue;  // internal wire
        if (mode == CountingMode::kSignals) {
          const auto it = portOfSource.find(driver->from);
          if (it != portOfSource.end()) {
            inPortOfConnection[*driver] = it->second;
            merged.inputEdges[static_cast<std::size_t>(it->second)]
                .push_back(*driver);
            continue;
          }
          portOfSource.emplace(driver->from, merged.inputCount());
        }
        inPortOfConnection[*driver] = merged.inputCount();
        merged.inputEdges.push_back({*driver});
      }
    });
  }

  // --- assign output ports ------------------------------------------------
  {
    std::map<Endpoint, int> portOfSource;  // kSignals only
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.outputCount(); ++p) {
        const Endpoint src{b, static_cast<std::uint16_t>(p)};
        for (const Connection& c : net.fanoutOf(b, p)) {
          if (partition.test(c.to.block)) continue;  // stays internal
          if (mode == CountingMode::kSignals) {
            const auto it = portOfSource.find(src);
            if (it != portOfSource.end()) {
              merged.outputEdges[static_cast<std::size_t>(it->second)]
                  .push_back(c);
              continue;
            }
            portOfSource.emplace(src, merged.outputCount());
          }
          merged.outputEdges.push_back({c});
          merged.outputSources.push_back(src);
        }
      }
    });
  }

  // --- build per-member programs ------------------------------------------
  std::vector<behavior::Program> parts;

  // Wire declarations first so merged state initialization covers them.
  {
    behavior::Program wireDecls;
    partition.forEach([&](std::size_t bi) {
      const BlockId b = static_cast<BlockId>(bi);
      const BlockType& t = *net.block(b).type;
      for (int p = 0; p < t.outputCount(); ++p) {
        const Endpoint e{b, static_cast<std::uint16_t>(p)};
        wireDecls.statements.push_back(
            behavior::makeVarDecl(wireName(e), behavior::makeIntLit(0)));
        wireDecls.statements.push_back(
            behavior::makeVarDecl(snapName(e), behavior::makeIntLit(0)));
      }
    });
    parts.push_back(std::move(wireDecls));
  }

  for (BlockId b : merged.members) {
    const BlockType& t = *net.block(b).type;
    // Port renames, in assignment order; a later entry for the same name
    // wins (an output port shadows a same-named input).
    std::vector<std::pair<const std::string*, std::string>> ports;
    // Input ports -> wire of internal driver, or programmable input port.
    for (int p = 0; p < t.inputCount(); ++p) {
      const Connection driver = *net.driverOf(b, p);
      ports.emplace_back(
          &t.inputName(p),
          partition.test(driver.from.block)
              ? snapName(driver.from)
              : numbered("in", inPortOfConnection.at(driver)));
    }
    // Output ports -> wires.
    for (int p = 0; p < t.outputCount(); ++p)
      ports.emplace_back(&t.outputName(p),
                         wireName(Endpoint{b, static_cast<std::uint16_t>(p)}));
    // Everything else (state variables) gets a per-member prefix; `tick`
    // is shared by design (all sequential members tick together).
    const std::string prefix = numbered("b", b) + '_';
    behavior::Program prog = behavior::renamed(
        *t.program(), [&](const std::string& n) -> std::string {
          for (auto it = ports.rbegin(); it != ports.rend(); ++it)
            if (*it->first == n) return it->second;
          return n == "tick" ? n : prefix + n;
        });
    // Refresh this member's wire snapshots on non-tick passes, inline so
    // downstream members still cascade within a single packet activation.
    for (int p = 0; p < t.outputCount(); ++p) {
      const Endpoint e{b, static_cast<std::uint16_t>(p)};
      std::vector<behavior::StmtPtr> refresh;
      refresh.push_back(behavior::makeAssign(
          snapName(e), behavior::makeVarRef(wireName(e))));
      prog.statements.push_back(behavior::makeIf(
          behavior::makeBinary(behavior::BinaryOp::kEq,
                               behavior::makeVarRef("tick"),
                               behavior::makeIntLit(0)),
          std::move(refresh)));
    }
    parts.push_back(std::move(prog));
  }

  // --- re-export wires on the programmable outputs -------------------------
  {
    behavior::Program exports;
    for (int k = 0; k < merged.outputCount(); ++k)
      exports.statements.push_back(behavior::makeAssign(
          numbered("out", k),
          behavior::makeVarRef(
              wireName(merged.outputSources[static_cast<std::size_t>(k)]))));
    parts.push_back(std::move(exports));
  }

  merged.program = behavior::mergePrograms(std::move(parts));
  return merged;
}

}  // namespace eblocks::codegen
