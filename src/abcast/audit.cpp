#include "abcast/audit.hpp"

#include <algorithm>

namespace dpu {

namespace {

/// A message as violations name it: its payload in lowercase hex.  Raw
/// payload bytes would make the JSON result document invalid UTF-8.
std::string hex(const std::string& m) {
  return encode_hex(
      {reinterpret_cast<const std::uint8_t*>(m.data()), m.size()});
}

}  // namespace

void AbcastAudit::record_sent(NodeId sender, const Bytes& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  sent_[sender].insert(to_string(payload));
}

void AbcastAudit::record_delivery(NodeId stack, const Bytes& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  deliveries_[stack].push_back(to_string(payload));
}

std::size_t AbcastAudit::deliveries_at(NodeId stack) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = deliveries_.find(stack);
  return it == deliveries_.end() ? 0 : it->second.size();
}

void AbcastAudit::record_recovered(NodeId stack) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto d = deliveries_.find(stack);
  if (d != deliveries_.end()) {
    archived_deliveries_[stack].push_back(std::move(d->second));
    deliveries_.erase(d);
  }
  auto s = sent_.find(stack);
  if (s != sent_.end()) {
    archived_sent_[stack].insert(s->second.begin(), s->second.end());
    sent_.erase(s);
  }
}

std::size_t AbcastAudit::total_sent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [node, msgs] : sent_) n += msgs.size();
  return n;
}

PropertyReport AbcastAudit::check(std::size_t world_size,
                                  const std::set<NodeId>& crashed) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  PropertyReport report;

  auto list_of = [this](NodeId i) -> const std::vector<std::string>& {
    static const std::vector<std::string> kEmpty;
    auto it = deliveries_.find(i);
    return it == deliveries_.end() ? kEmpty : it->second;
  };
  auto is_correct = [&](NodeId i) { return crashed.count(i) == 0; };

  // All messages ever sent (for integrity) and per-stack delivery sets.
  std::set<std::string> all_sent;
  for (const auto& [node, msgs] : sent_) all_sent.insert(msgs.begin(), msgs.end());
  for (const auto& [node, msgs] : archived_sent_) {
    all_sent.insert(msgs.begin(), msgs.end());
  }
  std::map<NodeId, std::set<std::string>> delivered_set;
  for (NodeId i = 0; i < world_size; ++i) {
    const auto& list = list_of(i);
    delivered_set[i] = std::set<std::string>(list.begin(), list.end());

    // Uniform integrity (1): at most once.
    if (delivered_set[i].size() != list.size()) {
      std::map<std::string, int> counts;
      for (const auto& m : list) ++counts[m];
      for (const auto& [m, c] : counts) {
        if (c > 1) {
          report.fail("integrity: stack " + std::to_string(i) + " delivered '" +
                      hex(m) + "' " + std::to_string(c) + " times");
        }
      }
    }
    // Uniform integrity (2): only previously-sent messages.
    for (const auto& m : delivered_set[i]) {
      if (all_sent.count(m) == 0) {
        report.fail("integrity: stack " + std::to_string(i) + " delivered '" +
                    hex(m) + "' which was never abcast");
      }
    }
  }

  // Validity: correct senders deliver their own messages.
  for (const auto& [sender, msgs] : sent_) {
    if (!is_correct(sender)) continue;
    for (const auto& m : msgs) {
      if (delivered_set[sender].count(m) == 0) {
        report.fail("validity: correct stack " + std::to_string(sender) +
                    " abcast '" + hex(m) + "' but never adelivered it");
      }
    }
  }

  // Archived logs of dead incarnations: integrity per incarnation log, and
  // everything they delivered feeds the agreement obligation below.
  for (const auto& [node, logs] : archived_deliveries_) {
    for (std::size_t life = 0; life < logs.size(); ++life) {
      std::set<std::string> seen;
      for (const auto& m : logs[life]) {
        if (!seen.insert(m).second) {
          report.fail("integrity: stack " + std::to_string(node) +
                      " (incarnation " + std::to_string(life) +
                      ") delivered '" + hex(m) + "' more than once");
        }
        if (all_sent.count(m) == 0) {
          report.fail("integrity: stack " + std::to_string(node) +
                      " (incarnation " + std::to_string(life) +
                      ") delivered '" + hex(m) + "' which was never abcast");
        }
      }
    }
  }

  // Uniform agreement: delivered anywhere => delivered on every correct stack.
  std::set<std::string> delivered_anywhere;
  for (const auto& [node, s] : delivered_set) {
    delivered_anywhere.insert(s.begin(), s.end());
  }
  for (const auto& [node, logs] : archived_deliveries_) {
    for (const auto& log : logs) {
      delivered_anywhere.insert(log.begin(), log.end());
    }
  }
  for (const auto& m : delivered_anywhere) {
    for (NodeId i = 0; i < world_size; ++i) {
      if (!is_correct(i)) continue;
      if (delivered_set[i].count(m) == 0) {
        report.fail("agreement: '" + hex(m) +
                    "' was delivered somewhere but not on correct stack " +
                    std::to_string(i));
      }
    }
  }

  // Uniform total order.  Pick the first correct stack as reference; every
  // correct stack's sequence must be identical (given agreement), and every
  // crashed stack's sequence must embed order-preserving.
  NodeId ref = kNoNode;
  for (NodeId i = 0; i < world_size; ++i) {
    if (is_correct(i)) {
      ref = i;
      break;
    }
  }
  if (ref == kNoNode) return report;  // everything crashed; nothing to check
  const auto& ref_list = list_of(ref);
  std::map<std::string, std::size_t> ref_index;
  for (std::size_t k = 0; k < ref_list.size(); ++k) ref_index[ref_list[k]] = k;

  for (NodeId i = 0; i < world_size; ++i) {
    if (i == ref) continue;
    const auto& list = list_of(i);
    if (is_correct(i)) {
      if (list != ref_list) {
        report.fail("total order: correct stacks " + std::to_string(ref) +
                    " and " + std::to_string(i) +
                    " delivered different sequences (" +
                    std::to_string(ref_list.size()) + " vs " +
                    std::to_string(list.size()) + " messages)");
      }
      continue;
    }
    // Crashed stack: relative order must agree with the reference.
    std::size_t last = 0;
    bool first = true;
    for (const auto& m : list) {
      auto it = ref_index.find(m);
      if (it == ref_index.end()) continue;  // already flagged by agreement
      if (!first && it->second <= last) {
        report.fail("total order: crashed stack " + std::to_string(i) +
                    " delivered '" + hex(m) + "' out of order w.r.t. stack " +
                    std::to_string(ref));
      }
      last = it->second;
      first = false;
    }
  }

  // Dead incarnations' logs embed order-preserving, like crashed stacks.
  for (const auto& [node, logs] : archived_deliveries_) {
    for (std::size_t life = 0; life < logs.size(); ++life) {
      std::size_t last = 0;
      bool first = true;
      for (const auto& m : logs[life]) {
        auto it = ref_index.find(m);
        if (it == ref_index.end()) continue;
        if (!first && it->second <= last) {
          report.fail("total order: stack " + std::to_string(node) +
                      " (incarnation " + std::to_string(life) +
                      ") delivered '" + hex(m) +
                      "' out of order w.r.t. stack " + std::to_string(ref));
        }
        last = it->second;
        first = false;
      }
    }
  }
  return report;
}

}  // namespace dpu
