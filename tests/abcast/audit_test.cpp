// Unit tests for the AbcastAudit checker itself: it must flag violations of
// each of the four properties (a checker that cannot fail is no checker).
#include "abcast/audit.hpp"

#include <gtest/gtest.h>

namespace dpu {
namespace {

TEST(AbcastAudit, CleanRunPasses) {
  AbcastAudit audit;
  for (NodeId n = 0; n < 3; ++n) {
    audit.record_sent(n, to_bytes("m" + std::to_string(n)));
  }
  for (NodeId n = 0; n < 3; ++n) {
    audit.record_delivery(n, to_bytes("m0"));
    audit.record_delivery(n, to_bytes("m1"));
    audit.record_delivery(n, to_bytes("m2"));
  }
  EXPECT_TRUE(audit.check(3).ok);
}

TEST(AbcastAudit, DetectsDuplicateDelivery) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("m"));
  audit.record_delivery(0, to_bytes("m"));
  audit.record_delivery(0, to_bytes("m"));
  audit.record_delivery(1, to_bytes("m"));
  auto report = audit.check(2);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("integrity"), std::string::npos);
}

TEST(AbcastAudit, DetectsDeliveryOfUnsentMessage) {
  AbcastAudit audit;
  audit.record_delivery(0, to_bytes("ghost"));
  audit.record_delivery(1, to_bytes("ghost"));
  auto report = audit.check(2);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("never abcast"), std::string::npos);
}

TEST(AbcastAudit, DetectsValidityViolation) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("m"));
  // Nobody delivers it; sender 0 is correct.
  auto report = audit.check(2);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("validity"), std::string::npos);
}

TEST(AbcastAudit, CrashedSenderExcusedFromValidity) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("m"));
  EXPECT_TRUE(audit.check(2, {0}).ok);
}

TEST(AbcastAudit, DetectsAgreementViolation) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("m"));
  audit.record_delivery(0, to_bytes("m"));
  // Stack 1 (correct) never delivers it.
  auto report = audit.check(2);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("agreement"), std::string::npos);
}

TEST(AbcastAudit, AgreementAppliesToCrashedStackDeliveries) {
  // Uniform agreement: even a delivery made by a stack that later crashed
  // obligates all correct stacks.
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("m"));
  audit.record_delivery(2, to_bytes("m"));  // stack 2 delivered, then crashed
  auto report = audit.check(3, {2});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("agreement"), std::string::npos);
}

TEST(AbcastAudit, DetectsTotalOrderViolation) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("a"));
  audit.record_sent(0, to_bytes("b"));
  audit.record_delivery(0, to_bytes("a"));
  audit.record_delivery(0, to_bytes("b"));
  audit.record_delivery(1, to_bytes("b"));
  audit.record_delivery(1, to_bytes("a"));
  auto report = audit.check(2);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("total order"), std::string::npos);
}

TEST(AbcastAudit, CrashedStackPrefixOrderChecked) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("a"));
  audit.record_sent(0, to_bytes("b"));
  audit.record_sent(0, to_bytes("c"));
  for (NodeId n = 0; n < 2; ++n) {
    audit.record_delivery(n, to_bytes("a"));
    audit.record_delivery(n, to_bytes("b"));
    audit.record_delivery(n, to_bytes("c"));
  }
  // Crashed stack delivered a subset in consistent order: fine.
  audit.record_delivery(2, to_bytes("a"));
  audit.record_delivery(2, to_bytes("c"));
  EXPECT_TRUE(audit.check(3, {2}).ok);

  // A second crashed stack delivered out of order: flagged.
  audit.record_delivery(3, to_bytes("b"));
  audit.record_delivery(3, to_bytes("a"));
  auto report = audit.check(4, {2, 3});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("total order"), std::string::npos);
}

TEST(AbcastAudit, ViolationsNameBinaryMessagesInHex) {
  // Probe payloads are binary.  Violations land in JSON result documents,
  // so they must name messages in ASCII: every kind of violation, for
  // payloads made of high bytes.
  auto binary = [](std::uint8_t seed) {
    Bytes b(64);
    for (std::size_t k = 0; k < b.size(); ++k) {
      b[k] = static_cast<std::uint8_t>(0x80 + ((seed + k) % 0x80));
    }
    return b;
  };
  const Bytes a = binary(0x1c);  // first byte 0x9c
  const Bytes b = binary(0x20);
  const Bytes ghost = binary(0x40);
  AbcastAudit audit;
  audit.record_sent(0, a);
  audit.record_sent(0, b);
  audit.record_sent(2, binary(0x60));         // validity: never delivered
  audit.record_delivery(0, a);
  audit.record_delivery(0, b);
  audit.record_delivery(0, b);                // integrity: duplicate
  audit.record_delivery(1, b);                // total order vs stack 0
  audit.record_delivery(1, a);
  audit.record_delivery(1, ghost);            // integrity: never abcast
  audit.record_delivery(3, b);                // crashed stack, out of order
  audit.record_delivery(3, a);
  audit.record_recovered(4);
  audit.record_delivery(4, ghost);            // dead incarnation log
  const PropertyReport report = audit.check(5, {3});

  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.violations.size(), 6u);
  for (const std::string& v : report.violations) {
    for (const char c : v) {
      EXPECT_LT(static_cast<unsigned char>(c), 0x80) << v;
    }
  }
  EXPECT_NE(report.summary().find("'9c9d9e9f"), std::string::npos)
      << report.summary();
}

TEST(AbcastAudit, CountersWork) {
  AbcastAudit audit;
  audit.record_sent(0, to_bytes("x"));
  audit.record_sent(1, to_bytes("y"));
  audit.record_delivery(0, to_bytes("x"));
  EXPECT_EQ(audit.total_sent(), 2u);
  EXPECT_EQ(audit.deliveries_at(0), 1u);
  EXPECT_EQ(audit.deliveries_at(1), 0u);
}

}  // namespace
}  // namespace dpu
