// Atomic broadcast service interface (paper §5.1).
//
// Properties (Hadzilacos & Toueg [7], as quoted in the paper):
//  * Validity — if a correct process ABcasts m, it eventually Adelivers m.
//  * Uniform agreement — if a process Adelivers m, all correct processes
//    eventually Adeliver m.
//  * Uniform integrity — every process Adelivers m at most once, and only
//    if m was previously ABcast.
//  * Uniform total order — if some process Adelivers m before m', every
//    process Adelivers m' only after it has Adelivered m.
//
// Three providers implement this service (DESIGN.md §3): the consensus-based
// CT-ABcast (the paper's protocol), a fixed-sequencer ABcast and a
// token-ring ABcast.  They are interchangeable behind the service name —
// which is exactly what the replacement module exploits.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/stack.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace dpu {

inline constexpr char kAbcastService[] = "abcast";

/// The service name the replacement module re-binds the real provider to
/// (paper Figure 3: modules call `r-p` provided by Repl-P, which requires
/// the inner `p`).
inline constexpr char kAbcastInnerService[] = "abcast.inner";

struct AbcastApi {
  virtual ~AbcastApi() = default;
  /// Broadcasts `payload` to all stacks with uniform total order.  Takes a
  /// Payload (shared immutable buffer) so serializing callers hand their
  /// wire bytes down copy-free via BufWriter::take_payload(); a plain Bytes
  /// argument converts implicitly (one copy, as before).
  virtual void abcast(Payload payload) = 0;
};

/// One message of a batch upcall: a view of the provider's buffer, valid
/// for the duration of the upcall only (no bytes are copied).
struct AbcastDelivery {
  NodeId sender;
  const Bytes& payload;
};

struct AbcastListener {
  virtual ~AbcastListener() = default;
  /// Upcall: `payload` is delivered in the global total order; `sender` is
  /// the stack whose abcast() produced it.
  virtual void adeliver(NodeId sender, const Bytes& payload) = 0;

  /// Batch upcall: `run` is a run of consecutive messages of the total
  /// order, released by one provider event (a decided consensus batch, a
  /// contiguous stretch of sequencer order).  Providers hand each run over
  /// in one upcall, so a run costs one service crossing however long it is.
  /// The default calls adeliver() once per element, in order.
  ///
  /// The one ordering difference from per-message upcalls: within one run,
  /// each listener receives the whole run before the next listener starts.
  /// Each node's own delivery sequence is unchanged.  Registration is
  /// checked once per run and listener: a listener added during a run sees
  /// only later runs, and one that unregisters mid-run still receives the
  /// rest of that run.
  virtual void adeliver_batch(std::span<const AbcastDelivery> run) {
    for (const AbcastDelivery& d : run) adeliver(d.sender, d.payload);
  }
};

/// Hands `run` (sender, payload) to every listener of `up` in one upcall;
/// no-op for an empty run.
inline void adeliver_run(const UpcallRef<AbcastListener>& up,
                         const std::vector<std::pair<NodeId, Bytes>>& run) {
  if (run.empty()) return;
  std::vector<AbcastDelivery> views;
  views.reserve(run.size());
  for (const auto& [sender, payload] : run) {
    views.push_back(AbcastDelivery{sender, payload});
  }
  up.notify([&views](AbcastListener& l) { l.adeliver_batch(views); });
}

}  // namespace dpu
