#include "net/msg_dedup.hpp"

#include <iterator>

#include "runtime/host.hpp"

namespace dpu {

bool MsgDedup::Window::contains(std::uint64_t seq) const {
  if (seq < next) return true;
  auto after = ahead.upper_bound(seq);  // first run starting past seq
  return after != ahead.begin() && seq < std::prev(after)->second;
}

bool MsgDedup::Window::mark(std::uint64_t seq) {
  if (seq < next) return false;
  if (seq == next) {
    ++next;
    // Absorb an ahead-run now contiguous with the watermark.
    auto run = ahead.begin();
    if (run != ahead.end() && run->first == next) {
      next = run->second;
      ahead.erase(run);
    }
    return true;
  }
  // seq beyond the watermark: place it in the [start, end) runs, coalescing
  // with a neighbouring run on either side.
  auto after = ahead.upper_bound(seq);
  if (after != ahead.begin()) {
    auto before = std::prev(after);
    if (seq < before->second) return false;  // inside an existing run
    if (seq == before->second) {
      ++before->second;
      if (after != ahead.end() && after->first == before->second) {
        before->second = after->second;
        ahead.erase(after);
      }
      return true;
    }
  }
  if (after != ahead.end() && after->first == seq + 1) {
    // Prepends the following run (map keys are immutable: re-insert).
    const std::uint64_t end = after->second;
    ahead.erase(after);
    ahead.emplace(seq, end);
    return true;
  }
  ahead.emplace(seq, seq + 1);
  return true;
}

MsgDedup::Window MsgDedup::fresh_window(std::uint64_t epoch) {
  return Window{(epoch << kIncarnationSeqShift) + 1, {}};
}

void MsgDedup::reset(std::size_t world, std::size_t max_old_epochs) {
  origins_.assign(world, Origin{});
  max_old_epochs_ = max_old_epochs;
}

bool MsgDedup::compacted_away(const Origin& o, std::uint64_t epoch) const {
  return max_old_epochs_ != kKeepAllEpochs && !o.old_epochs.empty() &&
         epoch < o.old_epochs.begin()->first &&
         o.old_epochs.size() >= max_old_epochs_;
}

bool MsgDedup::mark_seen(const MsgId& id) {
  if (id.origin >= origins_.size()) return false;  // malformed origin
  Origin& o = origins_[id.origin];
  const std::uint64_t epoch = seq_epoch(id.seq);
  if (epoch == o.epoch) return o.cur.mark(id.seq);
  if (epoch > o.epoch) {
    // The origin restarted: archive the dead incarnation's window (late
    // copies of its messages must still dedup and deliver) and open the new
    // epoch's.
    o.old_epochs.emplace(o.epoch, std::move(o.cur));
    if (max_old_epochs_ != kKeepAllEpochs) {
      while (o.old_epochs.size() > max_old_epochs_) {
        o.old_epochs.erase(o.old_epochs.begin());
      }
    }
    o.epoch = epoch;
    o.cur = fresh_window(epoch);
    return o.cur.mark(id.seq);
  }
  // A copy of an earlier incarnation's message, arriving after the new
  // incarnation was seen (or, on a freshly recovered stack, before that
  // epoch ever was): dedup in that epoch's own window.
  if (compacted_away(o, epoch)) return false;
  auto it = o.old_epochs.try_emplace(epoch, fresh_window(epoch)).first;
  return it->second.mark(id.seq);
}

bool MsgDedup::seen(const MsgId& id) const {
  if (id.origin >= origins_.size()) return true;  // never accepted
  const Origin& o = origins_[id.origin];
  const std::uint64_t epoch = seq_epoch(id.seq);
  if (epoch == o.epoch) return o.cur.contains(id.seq);
  if (epoch > o.epoch) return false;
  if (compacted_away(o, epoch)) return true;
  auto it = o.old_epochs.find(epoch);
  return it != o.old_epochs.end() && it->second.contains(id.seq);
}

std::size_t MsgDedup::entries() const {
  std::size_t n = 0;
  for (const Origin& o : origins_) {
    n += o.cur.ahead.size();
    for (const auto& [epoch, w] : o.old_epochs) n += w.ahead.size();
  }
  return n;
}

}  // namespace dpu
