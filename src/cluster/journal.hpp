// Crash-durable audit journal for the process-per-node runner.
//
// The in-process engines feed the AbcastAudit live; an agent process can be
// SIGKILLed mid-run, so it journals instead: every workload send (before
// the payload enters abcast) and every probe delivery append one line —
//
//     S <hex payload>
//     D <hex payload>
//
// — via one unbuffered ::write() to an O_APPEND fd.  The bytes live in the
// page cache from that moment on, so they survive process death (the whole
// point: a SIGKILL "crash" must not lose the evidence the §5.1 audit needs
// about what the dead incarnation sent and delivered).  One file per
// (node, incarnation); the supervisor replays them in node order,
// incarnations ascending, with AbcastAudit::record_recovered between
// incarnations — exactly the order the in-process runner would have fed it.
#pragma once

#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace dpu::cluster {

/// Inverse of encode_hex (util/bytes.hpp), which writes the journal's
/// payloads.  Throws std::invalid_argument on odd length or non-hex
/// characters.
[[nodiscard]] Bytes decode_hex(const std::string& hex);

/// One replayed journal record.
struct JournalRecord {
  bool is_send = false;  ///< S line (else D)
  Bytes payload;
};

/// Append-only journal writer (unbuffered, O_APPEND).
class JournalWriter {
 public:
  /// Opens (creating if needed) `path`.  Throws std::runtime_error.
  explicit JournalWriter(const std::string& path);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void record_send(const Bytes& payload) { append('S', payload); }
  void record_delivery(const Bytes& payload) { append('D', payload); }

 private:
  void append(char tag, const Bytes& payload);
  int fd_ = -1;
};

/// Parses a journal file's text.  Unknown/torn lines are skipped (a kill
/// can tear the final line; everything before it is intact by O_APPEND
/// write atomicity for our line sizes).
[[nodiscard]] std::vector<JournalRecord> parse_journal(
    const std::string& text);

/// The journal filename for (node, incarnation):
/// "audit-n<node>-i<incarnation>.log".
[[nodiscard]] std::string journal_filename(std::uint32_t node,
                                           std::uint32_t incarnation);

}  // namespace dpu::cluster
