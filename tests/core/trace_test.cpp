#include "core/trace.hpp"

#include <gtest/gtest.h>

namespace bftsim {
namespace {

TraceRecord send_record(NodeId a, NodeId b, Time at = 0) {
  TraceRecord rec;
  rec.kind = TraceKind::kSend;
  rec.at = at;
  rec.a = a;
  rec.b = b;
  rec.type = PayloadType::kPbftPrepare;
  rec.digest = 0x1234;
  rec.msg_id = 1;
  return rec;
}

TEST(TraceTest, EmptyTrace) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.size(), 0u);
  const std::uint64_t empty_fp = trace.fingerprint();
  trace.add(send_record(0, 1));
  EXPECT_NE(trace.fingerprint(), empty_fp);
}

TEST(TraceTest, FingerprintIsOrderSensitive) {
  Trace ab;
  ab.add(send_record(0, 1));
  ab.add(send_record(1, 0));
  Trace ba;
  ba.add(send_record(1, 0));
  ba.add(send_record(0, 1));
  EXPECT_NE(ab.fingerprint(), ba.fingerprint());
}

TEST(TraceTest, FingerprintIsContentSensitive) {
  Trace a;
  a.add(send_record(0, 1, 10));
  Trace b;
  b.add(send_record(0, 1, 11));  // different time
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  TraceRecord rec = send_record(0, 1, 10);
  rec.digest = 0x9999;  // different payload
  Trace c;
  c.add(rec);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(TraceTest, IdenticalTracesHaveIdenticalFingerprints) {
  Trace a;
  Trace b;
  for (int i = 0; i < 50; ++i) {
    a.add(send_record(static_cast<NodeId>(i % 4), 1, i));
    b.add(send_record(static_cast<NodeId>(i % 4), 1, i));
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(TraceTest, ClearResets) {
  Trace trace;
  trace.add(send_record(0, 1));
  const std::uint64_t fp = Trace{}.fingerprint();
  trace.clear();
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.fingerprint(), fp);
}

TEST(TraceTest, KindNames) {
  EXPECT_EQ(to_string(TraceKind::kSend), "send");
  EXPECT_EQ(to_string(TraceKind::kDeliver), "deliver");
  EXPECT_EQ(to_string(TraceKind::kDrop), "drop");
  EXPECT_EQ(to_string(TraceKind::kDecide), "decide");
  EXPECT_EQ(to_string(TraceKind::kViewChange), "view");
  EXPECT_EQ(to_string(TraceKind::kCorrupt), "corrupt");
}

TEST(TraceTest, ToStringContainsEssentials) {
  const std::string s = send_record(3, 7, from_ms(12.0)).to_string();
  EXPECT_NE(s.find("send"), std::string::npos);
  EXPECT_NE(s.find("3->7"), std::string::npos);
  EXPECT_NE(s.find("pbft/prepare"), std::string::npos);
  EXPECT_NE(s.find("12"), std::string::npos);

  TraceRecord decide;
  decide.kind = TraceKind::kDecide;
  decide.a = 4;
  decide.view = 2;  // height
  decide.value = 77;
  const std::string d = decide.to_string();
  EXPECT_NE(d.find("decide"), std::string::npos);
  EXPECT_NE(d.find("height 2"), std::string::npos);
}

}  // namespace
}  // namespace bftsim
