// Latency instrumentation for the benchmark harnesses.
//
// The paper's metric (§6.2, after Urbán [19]): for a message m sent with
// ABcast, t_i(m) is the time between sending m and delivering m on stack i;
// the *average latency* of m is the mean of t_i(m) over all stacks.  The
// probe embeds the send timestamp in each payload, so every delivery yields
// one (send_time, latency) sample; averaging all samples in a send-time
// bucket equals the paper's metric when all stacks deliver all messages.
#pragma once

#include <mutex>

#include "abcast/abcast.hpp"
#include "runtime/host.hpp"
#include "runtime/time.hpp"
#include "util/stats.hpp"

namespace dpu {

/// Payload layout: [u32 magic][i64 send_time][u32 sender][varint seq]
/// [raw filler].  The magic makes probe traffic self-identifying: on a
/// facade that also carries other payloads (topic frames once a GM layer is
/// composed), probes and audit taps must skip what they did not send —
/// misparsing a topic frame as a timestamp once grew a latency time-series
/// by a garbage bucket index.
struct ProbePayload {
  static constexpr std::uint32_t kMagic = 0x50726F62;  // "Prob"

  TimePoint send_time = 0;
  NodeId sender = kNoNode;
  std::uint64_t seq = 0;

  /// Builds a payload of exactly `size` bytes (>= header size of 17..26).
  [[nodiscard]] static Bytes make(TimePoint now, NodeId sender,
                                  std::uint64_t seq, std::size_t size);

  /// Throws CodecError when `payload` is not probe-stamped.
  [[nodiscard]] static ProbePayload parse(const Bytes& payload);

  /// Cheap magic check (no full parse).
  [[nodiscard]] static bool is_probe(const Bytes& payload);
};

/// Aggregates latency samples from all stacks of a world.  Thread-safe so
/// the same probe works on the real-time engine.
class LatencyCollector {
 public:
  /// `bucket_width` groups samples by send time for the Figure-5 series.
  explicit LatencyCollector(Duration bucket_width = 100 * kMillisecond)
      : series_(bucket_width) {}

  void add(TimePoint send_time, Duration latency) {
    const std::lock_guard<std::mutex> lock(mutex_);
    all_.add(to_micros(latency));
    series_.add(send_time, to_micros(latency));
  }

  /// Statistics over samples of messages sent in roughly [from, to): every
  /// bucket overlapping the interval is included (bucket granularity).
  [[nodiscard]] OnlineStats window(TimePoint from, TimePoint to) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    OnlineStats out;
    for (std::size_t b = 0; b < series_.bucket_count(); ++b) {
      const TimePoint start = series_.bucket_start(b);
      const TimePoint end = start + series_.bucket_width();
      if (start < to && end > from) out.merge(series_.bucket(b));
    }
    return out;
  }

  [[nodiscard]] Samples& all() { return all_; }
  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] std::uint64_t sample_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return all_.count() ? static_cast<std::uint64_t>(all_.count()) : 0;
  }

  /// Folds another collector's samples in.  The scenario runner gives every
  /// node its own collector (single-writer on the rt engine's stack
  /// threads) and merges them post-run in node order — OnlineStats
  /// accumulation is order-sensitive in the last float bits, so a fixed
  /// merge order keeps simulator result documents byte-identical.
  void merge(const LatencyCollector& other) {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    all_.merge(other.all_);
    series_.merge(other.series_);
  }

 private:
  mutable std::mutex mutex_;
  Samples all_;
  TimeSeries series_;
};

/// AbcastListener that feeds a LatencyCollector from one stack.
class LatencyProbe final : public AbcastListener {
 public:
  LatencyProbe(LatencyCollector& collector, HostEnv& host)
      : collector_(&collector), host_(&host) {}

  void adeliver(NodeId /*sender*/, const Bytes& payload) override {
    // Probe traffic only: the facade may also carry topic frames (GM ops,
    // facade coordination) that this probe did not send.
    if (!ProbePayload::is_probe(payload)) return;
    const ProbePayload p = ProbePayload::parse(payload);
    // busy_now(): include the CPU work spent on this delivery path during
    // the current event (see HostEnv::busy_now).
    collector_->add(p.send_time, host_->busy_now() - p.send_time);
    ++deliveries_;
  }

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

 private:
  LatencyCollector* collector_;
  HostEnv* host_;
  std::uint64_t deliveries_ = 0;
};

}  // namespace dpu
