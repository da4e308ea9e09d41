// The extracted replacement substrate (repl/facade.hpp): wire-format pins
// (the post-extraction Repl-ABcast bytes must equal the pre-extraction
// format), cross-version dedup semantics, and behavior pins for the
// refactored Repl-ABcast — same trace markers, same counters, same switch
// sequencing as before the extraction.
#include "repl/facade.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/repl_rig.hpp"
#include "net/msg_dedup.hpp"
#include "repl/repl_abcast.hpp"

namespace dpu {
namespace {

using testing::ReplRig;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(FacadeCodec, DataWrapperRoundTrip) {
  const MsgId id{3, 41};
  const Bytes payload = to_bytes("hello");
  const Payload wire =
      ReplacementFacadeBase::wrap_data(7, id, Payload(payload));

  const auto m = ReplacementFacadeBase::unwrap(wire);
  EXPECT_EQ(m.tag, ReplacementFacadeBase::kNil);
  EXPECT_EQ(m.sn, 7u);
  EXPECT_EQ(m.id, id);
  EXPECT_EQ(m.payload, payload);

  // Zero-copy variant parses identically.
  const auto d = ReplacementFacadeBase::unwrap_data(wire);
  EXPECT_EQ(d.sn, 7u);
  EXPECT_EQ(d.id, id);
  EXPECT_EQ(d.payload.to_bytes(), payload);
}

TEST(FacadeCodec, DataWrapperBytesArePinned) {
  // The pre-extraction Repl-ABcast layout, byte for byte:
  //   u8 tag (0) | varint sn | u32 origin | varint seq | varint len | bytes
  const MsgId id{0x01020304, 5};
  const Bytes payload = to_bytes("ab");
  const Payload wire =
      ReplacementFacadeBase::wrap_data(2, id, Payload(payload));
  const Bytes expected = {0x00,                    // tag kNil
                          0x02,                    // sn = 2
                          0x01, 0x02, 0x03, 0x04,  // origin (u32, BE)
                          0x05,                    // seq = 5
                          0x02, 'a', 'b'};         // blob
  EXPECT_EQ(wire.to_bytes(), expected);
}

TEST(FacadeCodec, MalformedWireThrows) {
  Bytes junk = {0x07, 0x00};
  EXPECT_THROW((void)ReplacementFacadeBase::unwrap(junk), CodecError);
  Bytes truncated = {0x00, 0x01, 0x00};
  EXPECT_THROW((void)ReplacementFacadeBase::unwrap(truncated), CodecError);
}

TEST(FacadeCodec, ModuleParamsRoundTrip) {
  ModuleParams params;
  params.set("batch_max", "32").set("instance", "abcast.ct@abcast.inner#1");
  BufWriter w(64);
  encode_module_params(w, params);
  const Bytes bytes = w.take();
  BufReader r(bytes);
  const ModuleParams back = decode_module_params(r);
  EXPECT_EQ(back.entries(), params.entries());
}

// ---------------------------------------------------------------------------
// MsgDedup in the rbcast facade's cross-version role
// ---------------------------------------------------------------------------

TEST(MsgDedup, FirstSightingOnlyPerId) {
  MsgDedup dedup;
  dedup.reset(3);
  EXPECT_TRUE(dedup.mark_seen({0, 1}));
  EXPECT_FALSE(dedup.mark_seen({0, 1}));
  EXPECT_TRUE(dedup.mark_seen({1, 1}));  // other origin is independent
}

TEST(MsgDedup, OutOfOrderArrivalAcrossVersionsIsHandled) {
  // Ids 1..4 from one origin arrive 2, 4, 1, 3 (two inner transports can
  // interleave arbitrarily): every id is accepted exactly once, including
  // an id below the highest seen.
  MsgDedup dedup;
  dedup.reset(1);
  EXPECT_TRUE(dedup.mark_seen({0, 2}));
  EXPECT_TRUE(dedup.mark_seen({0, 4}));
  EXPECT_TRUE(dedup.mark_seen({0, 1}));
  EXPECT_TRUE(dedup.mark_seen({0, 3}));
  for (std::uint64_t s = 1; s <= 4; ++s) {
    EXPECT_FALSE(dedup.mark_seen({0, s})) << "id " << s;
  }
}

TEST(MsgDedup, ReissuedCopyOfDeliveredMessageIsSuppressed) {
  MsgDedup dedup;
  dedup.reset(1);
  // Contiguous prefix delivered, then a reissue of id 2 (e.g. the origin
  // reissued under a new version while the old copy already arrived).
  EXPECT_TRUE(dedup.mark_seen({0, 1}));
  EXPECT_TRUE(dedup.mark_seen({0, 2}));
  EXPECT_TRUE(dedup.mark_seen({0, 3}));
  EXPECT_FALSE(dedup.mark_seen({0, 2}));
}

TEST(MsgDedup, IncarnationEpochsStayIndependent) {
  MsgDedup dedup;
  dedup.reset(1);
  const std::uint64_t e1 = incarnation_seq_base(1);
  EXPECT_TRUE(dedup.mark_seen({0, 1}));           // epoch 0
  EXPECT_TRUE(dedup.mark_seen({0, e1 + 1}));      // epoch 1 opens
  EXPECT_FALSE(dedup.mark_seen({0, e1 + 1}));
  // A late relay of the dead incarnation's id 2 still delivers once.
  EXPECT_TRUE(dedup.mark_seen({0, 2}));
  EXPECT_FALSE(dedup.mark_seen({0, 2}));
}

TEST(MsgDedup, MalformedOriginIsRejected) {
  MsgDedup dedup;
  dedup.reset(2);
  EXPECT_FALSE(dedup.mark_seen({7, 1}));
}

// ---------------------------------------------------------------------------
// Repl-ABcast behavior pins (post-extraction == pre-extraction)
// ---------------------------------------------------------------------------

TEST(FacadeExtraction, ReplAbcastTraceMarkersUnchanged) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 11});
  for (int k = 0; k < 10; ++k) {
    rig.send_at((100 + k * 100) * kMillisecond, k % 3, "m" + std::to_string(k));
  }
  rig.switch_at(500 * kMillisecond, 0, "abcast.seq");
  rig.world.run_for(20 * kSecond);

  // The pre-extraction marker strings, verbatim.
  EXPECT_STREQ(ReplAbcastModule::kTraceChangeRequested,
               "repl-change-requested");
  EXPECT_STREQ(ReplAbcastModule::kTraceSwitchDone, "repl-switch-done");
  bool saw_request = false;
  std::size_t saw_done = 0;
  for (const TraceEvent& e : rig.trace.events()) {
    if (e.kind != TraceKind::kCustom) continue;
    if (e.detail == "repl-change-requested:abcast.seq") saw_request = true;
    if (e.detail == "repl-switch-done:abcast.seq:sn=1") ++saw_done;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_EQ(saw_done, 3u);  // one completion marker per stack

  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.repl[i]->current_protocol(), "abcast.seq");
    EXPECT_EQ(rig.repl[i]->seq_number(), 1u);
    EXPECT_EQ(rig.repl[i]->switches_completed(), 1u);
    EXPECT_EQ(rig.repl[i]->undelivered_count(), 0u);
  }
  auto report = rig.audit.check(3);
  EXPECT_TRUE(report.ok) << report.summary();
  rig.expect_generic_properties_ok();
}

TEST(FacadeExtraction, UnknownProtocolStillThrowsBeforeAnyTraffic) {
  ReplRig rig(SimConfig{.num_stacks = 3, .seed = 12});
  rig.world.run_for(100 * kMillisecond);
  EXPECT_THROW(rig.repl[0]->request_update("abcast.nope", {}),
               std::logic_error);
  EXPECT_EQ(rig.repl[0]->seq_number(), 0u);
}

}  // namespace
}  // namespace dpu
