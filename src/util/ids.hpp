// Identifier types shared across the whole middleware.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/bytes.hpp"

namespace dpu {

/// Identifies one machine/process, i.e. one protocol stack (paper §2: "a
/// module ... on a machine; the set of all modules located on a machine is
/// called a protocol stack").  Stacks are numbered 0..n-1.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// Globally unique id of an application message handed to atomic broadcast.
/// The pair (origin stack, per-origin counter) is unique without any
/// coordination, which Algorithm 1 needs so that re-issued messages can be
/// recognised and deduplicated across protocol versions.
struct MsgId {
  NodeId origin = kNoNode;
  std::uint64_t seq = 0;

  friend bool operator==(const MsgId&, const MsgId&) = default;
  friend auto operator<=>(const MsgId&, const MsgId&) = default;

  void encode(BufWriter& w) const {
    w.put_u32(origin);
    w.put_varint(seq);
  }

  static MsgId decode(BufReader& r) {
    MsgId id;
    id.origin = r.get_u32();
    id.seq = r.get_varint();
    return id;
  }

  [[nodiscard]] std::string str() const {
    return std::to_string(origin) + "#" + std::to_string(seq);
  }
};

}  // namespace dpu
