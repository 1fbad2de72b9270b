#pragma once

#include <cstddef>
#include <vector>

/// Worker→shard placement policies for the sharded cluster (DESIGN.md §16).
///
/// Which shard hosts which worker never changes simulation *results* —
/// cross-shard messages are keyed by (deliver time, tag), shard-count- and
/// placement-independent by construction — but it decides how many LB↔worker
/// and forwarding hops cross a shard boundary, i.e. how much mailbox traffic
/// the sharded runtime must reconcile at every window barrier.
namespace ilu {

enum class Placement {
  /// worker w → shard w % N. Ignores topology; the historical default.
  kRoundRobin,
  /// Group workers that are adjacent on the CH-BL consistent-hash ring onto
  /// the same shard. CH-BL forwards an over-bound invocation clockwise to
  /// the next distinct worker, so ring neighbours absorb each other's
  /// spillover; co-locating them keeps most forwarded traffic — and the
  /// warm-locality reuse that follows it — on one shard.
  kLocality,
};

/// Name for logs/CSV ("roundrobin" | "locality").
const char* to_string(Placement p);

/// Compute the worker→shard map for `num_workers` workers over `num_shards`
/// shards. `vnodes_per_worker` parameterizes the placement ring for
/// kLocality (pass the LB's CH-BL vnode count so the placement ring is the
/// routing ring); it is ignored for kRoundRobin. Deterministic: a pure
/// function of its arguments.
std::vector<std::size_t> assign_shards(Placement p, std::size_t num_workers,
                                       std::size_t num_shards,
                                       std::size_t vnodes_per_worker);

}  // namespace ilu
