#include "sim/sim_world.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "util/log.hpp"

namespace dpu {

namespace {
/// Initial event-heap capacity.  Saturated runs hold tens of thousands of
/// in-flight events; reserving up front keeps the hot loop free of vector
/// growth reallocations from the first packet on.
constexpr std::size_t kHeapReserve = 1 << 14;

constexpr TimePoint kInfTime = std::numeric_limits<TimePoint>::max();
}  // namespace

// ---------------------------------------------------------------------------
// SimHost: the HostEnv implementation handed to each stack.
// ---------------------------------------------------------------------------

class SimWorld::SimHost final : public HostEnv {
 public:
  SimHost(SimWorld& world, NodeId node, std::uint64_t seed)
      : world_(&world), node_(node), rng_(Rng::substream(seed, node)) {}

  /// Crash-recovery reset: the host object survives (HostEnv references
  /// held by long-lived observers stay valid) but everything of the old
  /// incarnation is dropped.  The caller must already have purged this
  /// node's events from the heap — otherwise a stale timer event
  /// could resolve against a freshly armed cell of the new incarnation.
  void reset_for_recovery(std::uint32_t incarnation, std::uint64_t seed) {
    incarnation_ = incarnation;
    timer_cells_.clear();
    timer_free_.clear();
    packet_handler_ = nullptr;
    rng_ = Rng::substream(seed,
                          incarnation_rng_substream(node_, incarnation_));
  }

  [[nodiscard]] NodeId node_id() const override { return node_; }
  [[nodiscard]] std::size_t world_size() const override {
    return world_->hosts_.size();
  }
  [[nodiscard]] TimePoint now() const override { return world_->now_; }
  [[nodiscard]] TimePoint busy_now() const override {
    return std::max(world_->now_, world_->busy_until_[node_]);
  }

  // Timer callbacks live in a free-list pool of cells; the event carries
  // only the (slot, generation) handle, so arming a timer allocates nothing
  // beyond the caller's own closure (amortized).  Generations invalidate
  // stale heap events after cancel/fire, including across slot reuse.
  TimerId set_timer(Duration after, std::function<void()> cb) override {
    const TimerId id = arm_cell(std::move(cb));
    world_->push_timer_event(world_->now_ + std::max<Duration>(after, 0),
                             node_, id, EventKind::kTimer);
    return id;
  }

  // An idle callback is a timer cell whose event sorts after every
  // non-idle event at its time; the busy deferral does the rest.
  TimerId set_idle_timer(std::function<void()> cb) override {
    const TimerId id = arm_cell(std::move(cb));
    world_->push_timer_event(world_->now_, node_, id, EventKind::kIdle);
    return id;
  }

  void cancel_timer(TimerId id) override {
    TimerCell* cell = resolve_timer(id);
    if (cell == nullptr) return;
    release_timer(*cell, id);
  }

  void fire_timer(TimerId id) {
    TimerCell* cell = resolve_timer(id);
    if (cell == nullptr) return;  // cancelled; stale heap event
    std::function<void()> cb = std::move(cell->cb);
    release_timer(*cell, id);  // release first: cb may re-arm timers
    cb();
  }

  void send_packet(NodeId dst, Payload data) override {
    world_->do_send_packet(node_, dst, std::move(data));
  }

  void post(std::function<void()> fn) override {
    world_->push_event(world_->now_, node_, std::move(fn));
  }

  [[nodiscard]] Rng& rng() override { return rng_; }

  void charge(Duration cost) override { world_->do_charge(node_, cost); }

  [[nodiscard]] bool crashed() const override {
    return world_->crashed_[node_];
  }

  [[nodiscard]] std::uint32_t incarnation() const override {
    return incarnation_;
  }

  void set_packet_handler(
      std::function<void(NodeId, const Payload&)> handler) override {
    packet_handler_ = std::move(handler);
  }

  void deliver(NodeId src, const Payload& data) {
    if (packet_handler_) packet_handler_(src, data);
  }

 private:
  struct TimerCell {
    std::function<void()> cb;
    std::uint32_t generation = 0;
    bool armed = false;
  };

  /// Stores `cb` in a free cell and returns its (generation, slot) handle.
  TimerId arm_cell(std::function<void()> cb) {
    std::uint32_t slot;
    if (!timer_free_.empty()) {
      slot = timer_free_.back();
      timer_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(timer_cells_.size());
      timer_cells_.emplace_back();
    }
    TimerCell& cell = timer_cells_[slot];
    cell.cb = std::move(cb);
    cell.armed = true;
    // Slot is offset by one so a TimerId can never be kNoTimer (0).
    return (static_cast<TimerId>(cell.generation) << 32) | (slot + 1);
  }

  TimerCell* resolve_timer(TimerId id) {
    const auto slot_plus_one = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (slot_plus_one == 0 || slot_plus_one > timer_cells_.size()) {
      return nullptr;
    }
    TimerCell& cell = timer_cells_[slot_plus_one - 1];
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (!cell.armed || cell.generation != generation) return nullptr;
    return &cell;
  }

  void release_timer(TimerCell& cell, TimerId id) {
    cell.armed = false;
    cell.cb = nullptr;
    ++cell.generation;
    timer_free_.push_back(static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1);
  }

  SimWorld* world_;
  NodeId node_;
  Rng rng_;
  std::uint32_t incarnation_ = 0;
  std::vector<TimerCell> timer_cells_;
  std::vector<std::uint32_t> timer_free_;
  std::function<void(NodeId, const Payload&)> packet_handler_;
};


// ---------------------------------------------------------------------------
// SimWorld
// ---------------------------------------------------------------------------

SimWorld::SimWorld(SimConfig config, const ProtocolLibrary* library,
                   TraceSink* trace)
    : config_(config), library_(library), trace_(trace) {
  if (config_.shards != 1) {
    throw std::invalid_argument("SimConfig::shards must be 1");
  }
  const std::size_t n = config_.num_stacks;
  assert(n > 0);
  // A packet sent at time u is charged send_cost >= send_cost_fixed before
  // its departure time is computed, so it delivers no earlier than
  // u + send_cost_fixed + min_latency: that sum is a safe window width.
  // Clamped to 1ns for degenerate all-zero models, where a packet can be
  // due before the window that merges it; merge_mailbox then delivers it
  // at the current time.
  lookahead_ = std::max<Duration>(
      1, config_.net.min_latency + config_.net.send_cost_fixed);
  heap_.reserve(kHeapReserve);
  busy_until_.assign(n, 0);
  crashed_.assign(n, false);
  link_rngs_.reset(n, [&](std::size_t i) {
    return Rng::substream(config_.seed, 1'000'000 + i);
  });
  link_seqs_.reset(n);
  hosts_.reserve(n);
  stacks_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    hosts_.push_back(std::make_unique<SimHost>(*this, i, config_.seed));
    stacks_.push_back(std::make_unique<Stack>(*hosts_.back(), library, trace));
    stacks_.back()->set_cost_model(config_.stack_cost);
  }
}

SimWorld::~SimWorld() {
  // Destroy stacks while the engine state (busy_until_, link tables,
  // mailbox) is still alive: module stop() handlers send packets and charge
  // CPU costs through their host on the way down.
  stacks_.clear();
}

void SimWorld::push_heap(Event ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

/// Replace-top requeue: restores the heap property after heap_[0] was
/// re-stamped in place (one sift-down instead of a pop+push pair).
void SimWorld::sift_down_root() {
  const EventAfter after{};
  const std::size_t n = heap_.size();
  const Event v = heap_[0];
  std::size_t i = 0;
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    std::size_t best = left;
    if (left + 1 < n && after(heap_[left], heap_[left + 1])) best = left + 1;
    if (!after(v, heap_[best])) break;  // v already outranks both children
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = v;
}

SimWorld::Event SimWorld::pop_heap_top() {
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  const Event top = heap_.back();
  heap_.pop_back();
  return top;
}

void SimWorld::push_event(TimePoint t, NodeId node, std::function<void()> fn,
                          EventKind kind) {
  assert(node < hosts_.size());
  Event ev{};
  ev.time = t;
  ev.seq = next_seq_++;
  ev.node = node;
  ev.kind = kind;
  ev.att.pool = closures_.acquire(std::move(fn));
  push_heap(ev);
}

void SimWorld::push_timer_event(TimePoint t, NodeId node, TimerId id,
                                EventKind kind) {
  Event ev{};
  ev.time = t;
  ev.seq = next_seq_++;
  ev.node = node;
  ev.kind = kind;
  ev.timer = id;
  push_heap(ev);
}

void SimWorld::at(TimePoint t, std::function<void()> fn) {
  assert(t >= now_);
  driver_heap_.push_back(DriverEvent{t, driver_next_seq_++, std::move(fn)});
  std::push_heap(driver_heap_.begin(), driver_heap_.end(), DriverAfter{});
}

void SimWorld::at_node(TimePoint t, NodeId node, std::function<void()> fn) {
  assert(t >= now_);
  push_event(t, node, std::move(fn), EventKind::kDriver);
}

void SimWorld::run_on_node(NodeId node, std::function<void()> fn) {
  assert(node < hosts_.size());
  (void)node;
  fn();
}

void SimWorld::crash(NodeId node) {
  assert(node < hosts_.size());
  if (crashed_[node]) return;
  crashed_[node] = true;
  stacks_[node]->trace(TraceKind::kStackCrashed, "", "");
  DPU_LOG(kInfo, "sim") << "crash s" << node << " at t=" << now_;
}

/// Removes every pending event belonging to `node`'s dying incarnation: its
/// timers, idle callbacks and module-posted closures (their captures dangle
/// once the Stack is destroyed — and a stale timer event could collide with
/// a (slot, generation) pair the new incarnation hands out again), and
/// packets in flight to it, both heaped and still in the mailbox.  Driver
/// control events (kDriver) are deliberately kept: they belong to the
/// scenario schedule, not to the incarnation, so an update planned for
/// after the recovery still fires.  Linear scan + re-heapify — recovery is
/// a rare fault event, not a hot path.
void SimWorld::purge_node_events(NodeId node) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].node == node && heap_[i].kind != EventKind::kDriver) {
      discard(heap_[i]);
    } else {
      heap_[kept++] = heap_[i];
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), EventAfter{});
  std::erase_if(mailbox_,
                [node](const MailboxEntry& e) { return e.dst == node; });
}

void SimWorld::recover(NodeId node) {
  assert(node < hosts_.size());
  assert(crashed_[node] && "recover() requires a crashed stack");
  purge_node_events(node);
  // Destroy the old incarnation's modules while the node still counts as
  // crashed: anything a stop() handler tries to send is suppressed like the
  // rest of the dead stack's output.
  stacks_[node].reset();
  // Incarnation stamps are world-global, not per-node: a recovering stack
  // must start sequence epochs strictly above every epoch it ever *used* —
  // including epochs it adopted from other restarted peers (rp2p epoch
  // adoption) — and a world counter is the cheap way to guarantee that.
  const std::uint32_t incarnation = next_incarnation_++;
  hosts_[node]->reset_for_recovery(incarnation, config_.seed);
  stacks_[node] = std::make_unique<Stack>(*hosts_[node], library_, trace_);
  stacks_[node]->set_cost_model(config_.stack_cost);
  busy_until_[node] = now_;
  crashed_[node] = false;
  stacks_[node]->trace(TraceKind::kStackRecovered, "", "",
                       "incarnation=" + std::to_string(incarnation));
  DPU_LOG(kInfo, "sim") << "recover s" << node << " at t=" << now_
                        << " (incarnation " << incarnation << ")";
}

std::set<NodeId> SimWorld::crashed_set() const {
  std::set<NodeId> out;
  for (NodeId i = 0; i < crashed_.size(); ++i) {
    if (crashed_[i]) out.insert(i);
  }
  return out;
}

void SimWorld::set_link_fault(NodeId src, NodeId dst,
                              std::optional<LinkFault> fault) {
  assert(src < hosts_.size() && dst < hosts_.size());
  link_faults_.set(hosts_.size(), src, dst, std::move(fault));
}

void SimWorld::do_send_packet(NodeId src, NodeId dst, Payload data) {
  assert(src < hosts_.size() && dst < hosts_.size());
  if (crashed_[src]) return;  // dead stacks emit nothing
  ++packets_sent_;
  const auto& net = config_.net;
  // Sender-side CPU cost (serialization + syscall era-equivalent).
  do_charge(src, net.send_cost(data.size()));
  if (crashed_[dst]) {
    ++packets_dropped_;
    return;
  }
  if (link_filter_ && !link_filter_(src, dst)) {
    ++packets_dropped_;
    return;
  }
  // Directional per-link fault overrides replace the world-wide loss model
  // for this link and delay every delivered copy.
  const LinkFault* fault = link_faults_.find(hosts_.size(), src, dst);
  const double drop_p = fault != nullptr ? fault->drop : net.drop_probability;
  const double dup_p =
      fault != nullptr ? fault->duplicate : net.duplicate_probability;
  Rng& rng = link_rngs_.at(src, dst);
  if (rng.chance(drop_p)) {
    ++packets_dropped_;
    return;
  }
  const int copies = rng.chance(dup_p) ? 2 : 1;
  // The datagram leaves once the sender's CPU has finished the work charged
  // so far in this event (store-and-forward processor model): CPU costs on
  // the send path are part of the message's latency, not just of later
  // events' queueing.
  const TimePoint departure = std::max(now_, busy_until_[src]);
  const Duration extra =
      fault != nullptr ? std::max<Duration>(fault->extra_latency, 0) : 0;
  std::uint64_t& link_seq = link_seqs_.at(src, dst);
  for (int c = 0; c < copies; ++c) {
    const Duration latency =
        net.min_latency +
        static_cast<Duration>(rng.uniform_u64(static_cast<std::uint64_t>(
            net.max_latency - net.min_latency + 1)));
    // Duplicates share the same immutable buffer; no byte copy per copy.
    mailbox_.push_back(MailboxEntry{departure + latency + extra, src, dst,
                                    link_seq++, data});
  }
}

void SimWorld::do_charge(NodeId node, Duration cost) {
  if (node == kNoNode || cost <= 0) return;
  TimePoint& busy = busy_until_[node];
  busy = std::max(busy, now_) + cost;
}

void SimWorld::dispatch(const Event& ev) {
  // Pool values are moved out *before* running handlers: a handler may push
  // new events, and an acquire can reallocate the pool's slot vector.
  switch (ev.kind) {
    case EventKind::kClosure:
    case EventKind::kDriver: {
      const std::function<void()> fn = closures_.release(ev.att.pool);
      fn();
      break;
    }
    case EventKind::kPacket: {
      const Payload payload = payloads_.release(ev.att.pool);
      do_charge(ev.node, config_.net.recv_cost(payload.size()));
      hosts_[ev.node]->deliver(ev.att.src, payload);
      break;
    }
    case EventKind::kTimer:
    case EventKind::kIdle:
      hosts_[ev.node]->fire_timer(ev.timer);
      break;
  }
}

void SimWorld::discard(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kClosure:
    case EventKind::kDriver:
      (void)closures_.release(ev.att.pool);
      break;
    case EventKind::kPacket:
      (void)payloads_.release(ev.att.pool);
      break;
    case EventKind::kTimer:
    case EventKind::kIdle:
      break;  // the timer cell stays armed; crashed stacks never fire it
  }
}

// ---------------------------------------------------------------------------
// Window loop
// ---------------------------------------------------------------------------

/// Moves the mailbox into the heap in `(deliver_time, src, dst, link_seq)`
/// order, assigning insertion sequence numbers in that order.
void SimWorld::merge_mailbox() {
  if (mailbox_.empty()) return;
  std::sort(mailbox_.begin(), mailbox_.end(),
            [](const MailboxEntry& a, const MailboxEntry& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.link_seq < b.link_seq;
            });
  for (MailboxEntry& e : mailbox_) {
    Event ev{};
    // Entries earlier than the clock only exist under a degenerate
    // (clamped) lookahead; deliver them now rather than in the past.
    ev.time = std::max(e.time, now_);
    ev.seq = next_seq_++;
    ev.node = e.dst;
    ev.kind = EventKind::kPacket;
    ev.att.src = e.src;
    ev.att.pool = payloads_.acquire(std::move(e.payload));
    push_heap(ev);
  }
  mailbox_.clear();
}

/// Executes node events with time < `h`.  Guard order: budget, then
/// busy-deferral, then crash discard.
void SimWorld::run_window(TimePoint h, std::uint64_t max_events) {
  while (!heap_.empty()) {
    Event& top = heap_.front();
    if (top.time >= h) break;
    if (processed_ >= max_events) break;
    if (!crashed_[top.node] && busy_until_[top.node] > top.time) {
      // Processor model: a busy stack defers its events.  Requeue in place
      // with a single sift-down (replace-top) instead of a pop+push pair;
      // deferrals dominate heap traffic on a saturated run.
      ++deferrals_;
      top.time = busy_until_[top.node];
      top.seq = next_seq_++;
      sift_down_root();
      continue;
    }
    const Event ev = pop_heap_top();
    if (crashed_[ev.node]) {
      discard(ev);  // events of crashed stacks vanish
      continue;
    }
    now_ = ev.time;
    ++processed_;
    dispatch(ev);
  }
}

/// Runs every due driver event, including same-time events the handlers
/// push.
void SimWorld::run_driver_step(TimePoint t) {
  now_ = t;
  while (!driver_heap_.empty() && driver_heap_.front().time <= t) {
    std::pop_heap(driver_heap_.begin(), driver_heap_.end(), DriverAfter{});
    DriverEvent ev = std::move(driver_heap_.back());
    driver_heap_.pop_back();
    ++processed_;
    ev.fn();
  }
}

bool SimWorld::run_until(TimePoint t_end, std::uint64_t max_events) {
  for (;;) {
    merge_mailbox();
    const TimePoint node_min = heap_.empty() ? kInfTime : heap_.front().time;
    const TimePoint driver_min =
        driver_heap_.empty() ? kInfTime : driver_heap_.front().time;
    const TimePoint t_min = std::min(node_min, driver_min);
    if (t_min == kInfTime || t_min > t_end) {
      // Pending events (if any) all lie beyond t_end, so advancing the
      // clock to the horizon cannot step over work.
      now_ = std::max(now_, t_end);
      return true;
    }
    if (processed_ >= max_events) {
      DPU_LOG(kError, "sim") << "event budget exhausted at t=" << now_;
      return false;
    }
    if (driver_min <= node_min) {
      run_driver_step(driver_min);
      continue;
    }
    run_window(std::min({node_min + lookahead_, driver_min,
                         t_end == kInfTime ? kInfTime : t_end + 1}),
               max_events);
  }
}

}  // namespace dpu
