// Traced per-layer measurement of one workload (`--trace 1`).
//
// The traced driver builds the SimWorld / RtWorld itself and composes each
// stack with the public compose_stack, adding its own hooks.  Besides the
// workload it fires probes into each layer's public API through
// stack.require<Iface>(service) — rp2p_send on a bench channel, rbcast,
// propose on a fresh consensus stream, abcast on the facade — and records
// when each probe leaves and arrives.  Probes run in alternating blocks:
// the workload messages sent while no probe runs give the same run's
// untraced latency, which is what trace.overhead_pct compares against.
//
// Spans (layer, node, start, end, probe id) and the engines' TraceEvent
// markers are written as Chrome trace-event JSON, which Perfetto loads.
#pragma once

#include <string>

#include "measure.hpp"

namespace dpu::bench {

/// Runs `w` traced on both engines and returns the per-layer metrics.
/// Writes the Chrome trace to `chrome_trace_path` unless it is empty.
[[nodiscard]] RunReport measure_per_layer(const Workload& w,
                                          std::uint64_t seed,
                                          const std::string& chrome_trace_path);

}  // namespace dpu::bench
