#include "util/bytes.hpp"

#include <array>

namespace dpu {

namespace {
constexpr std::array<char, 16> kHex = {'0', '1', '2', '3', '4', '5',
                                       '6', '7', '8', '9', 'a', 'b',
                                       'c', 'd', 'e', 'f'};
}  // namespace

std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = std::min(data.size(), max_bytes);
  out.reserve(n * 3 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out.push_back(':');
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0x0F]);
  }
  if (data.size() > n) out += "...";
  return out;
}

std::string encode_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0F]);
  }
  return out;
}

}  // namespace dpu
