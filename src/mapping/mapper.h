// Placement of a (synthesized) network onto a physical topology.
//
// Every logical block goes to a distinct physical node; fixed devices
// (sensors, outputs) can be pinned to the installation points where they
// physically are; every logical connection must ride a distinct physical
// cable from source node to destination node.  This is a subgraph
// monomorphism search (NP-hard), solved by backtracking with
// most-constrained-first ordering and forward checking on port budgets and
// cable capacities -- adequate for building-scale deployments.
#ifndef EBLOCKS_MAPPING_MAPPER_H_
#define EBLOCKS_MAPPING_MAPPER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/network.h"
#include "mapping/topology.h"

namespace eblocks::mapping {

struct MappingOptions {
  /// Pre-assigned placements (typically sensors and output devices, which
  /// are physically installed at known nodes).
  std::map<BlockId, PhysId> pinned;
  /// Wall-clock budget; a limit that is not positive or too large to
  /// represent (deadlineAfter, core/deadline.h) disables it.
  double timeLimitSeconds = 0.0;
};

struct Mapping {
  /// placement[logical block] = physical node (kNoPhys if unmapped).
  std::vector<PhysId> placement;
  /// cableOf[logical connection index] = index into Topology::links().
  std::vector<std::size_t> cableOf;
  std::uint64_t explored = 0;
  bool timedOut = false;
};

/// Finds a feasible placement, or nullopt when none exists (or the time
/// limit expired; check Mapping::timedOut is unavailable then -- a timeout
/// simply reports infeasible-within-budget via nullopt).
std::optional<Mapping> mapNetwork(const Network& logical,
                                  const Topology& topo,
                                  const MappingOptions& options = {});

/// Independent constraint check; empty result means valid.
std::vector<std::string> verifyMapping(const Network& logical,
                                       const Topology& topo,
                                       const Mapping& mapping);

}  // namespace eblocks::mapping

#endif  // EBLOCKS_MAPPING_MAPPER_H_
