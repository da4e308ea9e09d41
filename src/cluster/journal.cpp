#include "cluster/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <sstream>
#include <stdexcept>

namespace dpu::cluster {

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes decode_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("decode_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("decode_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

JournalWriter::JournalWriter(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot open '" + path + "'");
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(char tag, const Bytes& payload) {
  std::string line;
  line.reserve(payload.size() * 2 + 3);
  line.push_back(tag);
  line.push_back(' ');
  line += encode_hex(payload);
  line.push_back('\n');
  // One write per line: O_APPEND makes it a single atomic append, and the
  // page cache keeps it when this process is SIGKILLed an instant later.
  (void)::write(fd_, line.data(), line.size());
}

std::vector<JournalRecord> parse_journal(const std::string& text) {
  std::vector<JournalRecord> records;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    // "S " with no hex is legal: an empty payload.
    if (line.size() < 2 || line[1] != ' ') continue;
    if (line[0] != 'S' && line[0] != 'D') continue;
    try {
      records.push_back(
          JournalRecord{line[0] == 'S', decode_hex(line.substr(2))});
    } catch (const std::invalid_argument&) {
      // Torn tail of a killed writer: drop the fragment.
    }
  }
  return records;
}

std::string journal_filename(std::uint32_t node, std::uint32_t incarnation) {
  return "audit-n" + std::to_string(node) + "-i" +
         std::to_string(incarnation) + ".log";
}

}  // namespace dpu::cluster
