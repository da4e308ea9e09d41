// Deterministic discrete-event simulation engine.
//
// SimWorld hosts N protocol stacks in one address space with a shared
// virtual clock.  It provides, per DESIGN.md §2/§8:
//
//  * one event heap ordered by (virtual time, insertion sequence) — fully
//    deterministic given the world seed;
//  * a network model: per-link latency drawn uniformly from a configured
//    range, optional loss and duplication, a pluggable link filter for
//    partitions, and directional per-link fault overrides (asymmetric loss,
//    slow links);
//  * a processor model: every stack has a "busy-until" horizon; event
//    handlers charge CPU costs (service hops, per-byte serialization) that
//    push the horizon forward, so queueing delay — and therefore the
//    latency-vs-load saturation the paper's Figure 6 shows — emerges from
//    the model instead of being scripted;
//  * fault injection: crash(node), crash-recovery (recover(node) restarts
//    the stack with a bumped incarnation) and link filters (partitions).
//
// Execution model.  One thread runs every event, in windows
// `[T, T + lookahead)` where `T` is the earliest pending event and the
// lookahead is `min_latency + send_cost_fixed`: a packet sent at `u`
// departs no earlier than `u + send_cost_fixed` (the sender is charged
// before the datagram leaves) and arrives no earlier than `min_latency`
// later, so nothing sent inside a window is due inside it.  Sent packets
// wait in a mailbox and enter the heap at the next window start in
// `(deliver_time, src, dst, link_seq)` order.  That merge fixes their
// insertion sequence — and so the tie-break among equal-time events — as a
// function of the packets alone, and every recorded result depends on it.
// Driver events (`at()`) run between windows, before node events at the
// same timestamp.  A stack's idle callbacks run after all of its other
// events due at or before its busy horizon (see EventAfter).
//
// All determinism derives from seeded substreams (util/rng.hpp), one per
// link for the network draws.  The same protocol code also runs on the
// multi-threaded real-time engine in src/rt; drivers reach both through
// the WorldControl interface (runtime/world.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "core/stack.hpp"
#include "core/trace.hpp"
#include "runtime/host.hpp"
#include "runtime/time.hpp"
#include "runtime/world.hpp"
#include "util/link_table.hpp"
#include "util/rng.hpp"

namespace dpu {

/// CPU nanoseconds charged per payload byte.  A dedicated alias (instead of
/// reusing Duration) because the value is *not* a duration: it only becomes
/// one after multiplying by a byte count, which the NetModelConfig::*_cost
/// accessors do.
using NanosPerByte = std::int64_t;

/// Network and CPU-cost model (DESIGN.md §8 calibration).
struct NetModelConfig {
  Duration min_latency = 45 * kMicrosecond;  ///< one-way latency, lower
  Duration max_latency = 75 * kMicrosecond;  ///< one-way latency, upper
  double drop_probability = 0.0;       ///< per-packet loss
  double duplicate_probability = 0.0;  ///< per-packet duplication
  Duration send_cost_fixed = 2 * kMicrosecond;  ///< sender CPU per packet
  NanosPerByte send_cost_per_byte_ns = 6;       ///< sender CPU per byte
  Duration recv_cost_fixed = 2 * kMicrosecond;  ///< receiver CPU per packet
  NanosPerByte recv_cost_per_byte_ns = 6;       ///< receiver CPU per byte

  /// Sender-side CPU cost of one `size`-byte packet (fixed + per-byte).
  [[nodiscard]] Duration send_cost(std::size_t size) const {
    return send_cost_fixed +
           send_cost_per_byte_ns * static_cast<Duration>(size);
  }

  /// Receiver-side CPU cost of one `size`-byte packet (fixed + per-byte).
  [[nodiscard]] Duration recv_cost(std::size_t size) const {
    return recv_cost_fixed +
           recv_cost_per_byte_ns * static_cast<Duration>(size);
  }
};

struct SimConfig {
  std::size_t num_stacks = 3;
  std::uint64_t seed = 1;
  /// Must be 1; kept only for bench/e2e/src/traced.cpp:637.
  std::size_t shards = 1;
  NetModelConfig net;
  StackCostModel stack_cost;  ///< applied to every stack (service hop cost)
};

class SimWorld final : public WorldControl {
 public:
  /// Throws std::invalid_argument unless `config.shards` is 1.
  explicit SimWorld(SimConfig config, const ProtocolLibrary* library = nullptr,
                    TraceSink* trace = nullptr);
  ~SimWorld() override;

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] std::size_t size() const override { return hosts_.size(); }
  [[nodiscard]] Stack& stack(NodeId node) override { return *stacks_[node]; }
  /// Engine time: the time of the event being executed, or of the last
  /// driver step / run end outside events.
  [[nodiscard]] TimePoint now() const override { return now_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }

  // ---- Driver hooks --------------------------------------------------------

  /// Schedules a driver closure at absolute virtual time `t` (no CPU
  /// accounting; use for test/bench orchestration).  Driver closures run
  /// between windows, before node events with the same timestamp.
  void at(TimePoint t, std::function<void()> fn) override;

  /// Schedules a closure on `node`'s executor at time `t`; runs with that
  /// stack's busy-time accounting, as if triggered by a local event.
  void at_node(TimePoint t, NodeId node, std::function<void()> fn) override;

  /// Runs `fn` immediately in driver context (with the stack's cost
  /// accounting applying to whatever it charges).
  void run_on_node(NodeId node, std::function<void()> fn) override;

  // ---- Fault injection ------------------------------------------------------

  /// Crashes a stack: all of its pending and future events are discarded and
  /// packets addressed to it vanish.  Crash-stop until recover().
  void crash(NodeId node) override;

  /// Crash-recovery: replaces the crashed stack with a fresh Stack on the
  /// same node id.  The host keeps its identity but is reset — incarnation
  /// bumped, timers/handlers cleared, RNG reseeded on an incarnation
  /// substream — and every event of the old incarnation still pending
  /// (timers, packets in flight to the node, mailbox entries) is purged, so
  /// nothing of the old life can fire into the new one.  The caller
  /// composes modules on the fresh stack afterwards.
  void recover(NodeId node) override;

  [[nodiscard]] bool crashed(NodeId node) const override {
    return crashed_[node];
  }
  [[nodiscard]] std::set<NodeId> crashed_set() const override;

  /// Installs a link filter: packets with filter(src,dst)==false are dropped.
  /// Used for partitions; pass nullptr to heal.
  void set_link_filter(
      std::function<bool(NodeId, NodeId)> deliverable) override {
    link_filter_ = std::move(deliverable);
  }

  /// Adjusts the per-packet loss/duplication probabilities mid-run (applies
  /// to packets sent from now on).  The scenario engine uses this for
  /// bounded lossy-link windows; draws stay on the per-link substreams, so
  /// runs remain deterministic.
  void set_loss(double drop_probability,
                double duplicate_probability) override {
    config_.net.drop_probability = drop_probability;
    config_.net.duplicate_probability = duplicate_probability;
  }

  /// Directional per-link override of the loss model; also adds the fault's
  /// extra_latency to every packet delivered on (src, dst).  Draws stay on
  /// the per-link substream, so installing/clearing overrides preserves
  /// determinism.
  void set_link_fault(NodeId src, NodeId dst,
                      std::optional<LinkFault> fault) override;

  // ---- Execution ------------------------------------------------------------

  /// Processes events with time <= t_end; returns false if `max_events` was
  /// exhausted first (runaway guard for tests).
  bool run_until(TimePoint t_end,
                 std::uint64_t max_events = 500'000'000ULL);

  bool run_for(Duration d, std::uint64_t max_events = 500'000'000ULL) {
    return run_until(now_ + d, max_events);
  }

  /// WorldControl::run — deterministic replay to `deadline`; `active_until`
  /// and `quiesced` are rt concepts and ignored here (the heap draining IS
  /// quiescence).
  bool run(TimePoint /*active_until*/, TimePoint deadline,
           std::uint64_t max_events,
           const std::function<bool()>& /*quiesced*/ = nullptr) override {
    return run_until(deadline, max_events);
  }

  [[nodiscard]] std::uint64_t processed_events() const { return processed_; }
  /// Events re-queued because their stack was busy (processor-model
  /// deferrals).  A hot-loop health metric for benches; it never enters
  /// result documents.
  [[nodiscard]] std::uint64_t deferrals() const { return deferrals_; }
  [[nodiscard]] std::uint64_t packets_sent() const override {
    return packets_sent_;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const override {
    return packets_dropped_;
  }

 private:
  class SimHost;
  friend class SimHost;

  /// Tagged event record.  The two dominant event classes of a saturated
  /// run — packet delivery and timer fire — carry plain data (a pool slot /
  /// a timer id) instead of a heap-allocated closure; driver events
  /// (at_node/post) keep their std::function in the closure pool.
  ///
  /// The record itself is trivially copyable on purpose: heap pushes, pops
  /// and busy-deferral requeues move 32-byte PODs instead of running
  /// shared_ptr/std::function move constructors, which is where a saturated
  /// run spends most of its time.  Payloads and closures live in free-list
  /// side pools indexed by `pool`.
  /// kClosure = module-posted closure (dies with its incarnation);
  /// kDriver = at_node() control event (owned by the test/scenario
  /// driver — survives a crash-recovery purge, so an update scheduled on a
  /// node that recovers in between still fires); kIdle = an idle callback
  /// (HostEnv::set_idle_timer): a timer cell like kTimer, ordered after
  /// every non-idle event at the same time (EventAfter).
  enum class EventKind : std::uint8_t {
    kClosure, kDriver, kPacket, kTimer, kIdle
  };

  struct Event {
    TimePoint time;
    std::uint64_t seq;  // insertion order; total-order tiebreak
    NodeId node;
    EventKind kind;
    union {
      TimerId timer;  // kTimer/kIdle: pooled timer handle
      struct {
        NodeId src;           // kPacket: sending stack
        std::uint32_t pool;   // kPacket/kClosure: side-pool slot
      } att;
    };
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 32);

  /// Idle events sort after every non-idle event at their time.  With the
  /// busy deferral (run_window), which re-stamps a busy node's events to
  /// its busy horizon, an idle event therefore runs only once its node has
  /// no non-idle event due at or before that horizon.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      // std::*_heap builds a max-heap; invert to pop the earliest event.
      if (a.time != b.time) return a.time > b.time;
      const bool a_idle = a.kind == EventKind::kIdle;
      if (a_idle != (b.kind == EventKind::kIdle)) return a_idle;
      return a.seq > b.seq;
    }
  };

  /// A sent packet waiting for the next window start.  `link_seq` is the
  /// per-(src,dst) send counter: it orders same-time packets on one link,
  /// including duplicate copies.
  struct MailboxEntry {
    TimePoint time;
    NodeId src;
    NodeId dst;
    std::uint64_t link_seq;
    Payload payload;
  };

  /// Free-list side pool for event attachments (payloads, closures): O(1)
  /// acquire/release, no steady-state allocation, deterministic slot order.
  template <class T>
  struct EventPool {
    std::vector<T> slots;
    std::vector<std::uint32_t> free;

    std::uint32_t acquire(T value) {
      std::uint32_t slot;
      if (!free.empty()) {
        slot = free.back();
        free.pop_back();
        slots[slot] = std::move(value);
      } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(std::move(value));
      }
      return slot;
    }

    /// Moves the value out and recycles the slot.
    T release(std::uint32_t slot) {
      T out = std::move(slots[slot]);
      slots[slot] = T{};
      free.push_back(slot);
      return out;
    }
  };

  /// Driver control event (at()).  Rare (scenario schedule), so a plain
  /// heap of closures, no pooling.
  struct DriverEvent {
    TimePoint time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct DriverAfter {
    bool operator()(const DriverEvent& a, const DriverEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push_heap(Event ev);
  void sift_down_root();
  Event pop_heap_top();
  void push_event(TimePoint t, NodeId node, std::function<void()> fn,
                  EventKind kind = EventKind::kClosure);
  void push_timer_event(TimePoint t, NodeId node, TimerId id,
                        EventKind kind);
  void dispatch(const Event& ev);
  void discard(const Event& ev);
  void purge_node_events(NodeId node);
  void do_send_packet(NodeId src, NodeId dst, Payload data);
  void do_charge(NodeId node, Duration cost);

  void merge_mailbox();
  void run_window(TimePoint h, std::uint64_t max_events);
  void run_driver_step(TimePoint t);

  SimConfig config_;
  const ProtocolLibrary* library_ = nullptr;  // kept for recover()
  TraceSink* trace_ = nullptr;                // kept for recover()
  Duration lookahead_ = 1;
  TimePoint now_ = 0;

  std::vector<Event> heap_;
  EventPool<Payload> payloads_;
  EventPool<std::function<void()>> closures_;
  std::uint64_t next_seq_ = 0;
  std::vector<DriverEvent> driver_heap_;
  std::uint64_t driver_next_seq_ = 0;
  std::vector<MailboxEntry> mailbox_;

  std::uint64_t processed_ = 0;  // node and driver events
  std::uint64_t deferrals_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;

  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<TimePoint> busy_until_;
  std::vector<bool> crashed_;
  /// World-global incarnation stamp handed to the next recovery (see
  /// recover(): stamps must outgrow every epoch any stack ever adopted).
  std::uint32_t next_incarnation_ = 1;
  /// Per-link RNG substreams and per-link send counters.
  LinkTable<Rng> link_rngs_;
  LinkTable<std::uint64_t> link_seqs_;
  std::function<bool(NodeId, NodeId)> link_filter_;
  /// Directional fault overrides (see LinkFaultTable).
  LinkFaultTable link_faults_;
};

}  // namespace dpu
