#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/certificate.hpp"
#include "crypto/hash.hpp"
#include "crypto/signature.hpp"
#include "crypto/vrf.hpp"

namespace bftsim {
namespace {

// --- hash --------------------------------------------------------------------

TEST(HashTest, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, Mix64IsBijectiveSpotCheck) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(HashTest, HashWordsOrderSensitive) {
  EXPECT_NE(hash_words({1, 2, 3}), hash_words({3, 2, 1}));
  EXPECT_NE(hash_words({1, 2}), hash_words({1, 2, 0}));
  EXPECT_EQ(hash_words({1, 2, 3}), hash_words({1, 2, 3}));
}

// --- vrf ---------------------------------------------------------------------

TEST(VrfTest, EvaluateIsDeterministic) {
  const Vrf vrf{42};
  EXPECT_EQ(vrf.evaluate(3, 7), vrf.evaluate(3, 7));
}

TEST(VrfTest, DistinctInputsDistinctOutputs) {
  const Vrf vrf{42};
  EXPECT_NE(vrf.evaluate(3, 7).value, vrf.evaluate(4, 7).value);
  EXPECT_NE(vrf.evaluate(3, 7).value, vrf.evaluate(3, 8).value);
}

TEST(VrfTest, DifferentSecretsDiffer) {
  EXPECT_NE(Vrf{1}.evaluate(0, 0).value, Vrf{2}.evaluate(0, 0).value);
}

TEST(VrfTest, VerifyAcceptsGenuineAndRejectsForged) {
  const Vrf vrf{99};
  const VrfOutput out = vrf.evaluate(5, 11);
  EXPECT_TRUE(vrf.verify(5, 11, out));
  EXPECT_FALSE(vrf.verify(6, 11, out));  // wrong claimed node
  EXPECT_FALSE(vrf.verify(5, 12, out));  // wrong round
  VrfOutput forged = out;
  forged.value ^= 1;
  EXPECT_FALSE(vrf.verify(5, 11, forged));
  forged = out;
  forged.proof ^= 1;
  EXPECT_FALSE(vrf.verify(5, 11, forged));
}

TEST(VrfTest, LeaderElectionIsRoughlyUniform) {
  // Over many rounds the minimum credential should rotate across nodes.
  const Vrf vrf{7};
  const std::uint32_t n = 16;
  std::vector<int> wins(n, 0);
  for (std::uint64_t round = 0; round < 1600; ++round) {
    NodeId winner = 0;
    std::uint64_t best = ~0ULL;
    for (NodeId i = 0; i < n; ++i) {
      const std::uint64_t v = vrf.evaluate(i, round).value;
      if (v < best) {
        best = v;
        winner = i;
      }
    }
    ++wins[winner];
  }
  for (const int w : wins) {
    EXPECT_GT(w, 50);   // expected 100 each
    EXPECT_LT(w, 180);
  }
}

// --- signatures ----------------------------------------------------------------

TEST(SignatureTest, SignVerifyRoundTrip) {
  const Signer signer{5};
  const Signature sig = signer.sign(3, 0xabcdef);
  EXPECT_TRUE(signer.verify(sig));
}

TEST(SignatureTest, RejectsTamperedFields) {
  const Signer signer{5};
  Signature sig = signer.sign(3, 0xabcdef);
  Signature bad = sig;
  bad.signer = 4;  // impersonation
  EXPECT_FALSE(signer.verify(bad));
  bad = sig;
  bad.digest ^= 1;  // different message
  EXPECT_FALSE(signer.verify(bad));
  bad = sig;
  bad.tag ^= 1;  // forged tag
  EXPECT_FALSE(signer.verify(bad));
}

TEST(SignatureTest, DifferentRunSecretsIncompatible) {
  const Signer a{1};
  const Signer b{2};
  EXPECT_FALSE(b.verify(a.sign(0, 42)));
}

// --- certificates ----------------------------------------------------------------

TEST(CertificateTest, QuorumCertValidity) {
  QuorumCert qc;
  qc.view = 3;
  qc.block = 0x42;
  qc.signers = {0, 1, 2, 3, 4};
  EXPECT_TRUE(qc.valid(5));
  EXPECT_TRUE(qc.valid(4));
  EXPECT_FALSE(qc.valid(6));
}

TEST(CertificateTest, DuplicateSignersRejected) {
  QuorumCert qc;
  qc.signers = {0, 1, 1, 2, 3};
  EXPECT_FALSE(qc.valid(5));
  EXPECT_FALSE(qc.valid(4));  // any duplicate invalidates the certificate
}

TEST(CertificateTest, DuplicateSignersNeverSatisfyQuorum) {
  QuorumCert qc;
  qc.signers = {7, 7, 7, 7, 7};
  EXPECT_FALSE(qc.valid(2));
}

TEST(CertificateTest, DigestSensitivity) {
  QuorumCert a;
  a.view = 1;
  a.block = 2;
  a.signers = {0, 1, 2};
  QuorumCert b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.signers.push_back(3);
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.view = 2;
  EXPECT_NE(a.digest(), b.digest());
}

TEST(CertificateTest, TimeoutCertValidity) {
  TimeoutCert tc;
  tc.view = 9;
  tc.signers = {0, 1, 2};
  EXPECT_TRUE(tc.valid(3));
  EXPECT_FALSE(tc.valid(4));
  tc.signers = {0, 0, 1};
  EXPECT_FALSE(tc.valid(3));
}

TEST(CertificateTest, GenesisCert) {
  const QuorumCert genesis = QuorumCert::genesis();
  EXPECT_EQ(genesis.view, 0u);
  EXPECT_FALSE(genesis.valid(1));  // only special-cased by the protocols
}

TEST(CertificateTest, DigestsMatchRecordedValues) {
  // Recorded before signer lists became shared bodies: the digest must
  // still hash the header, then every signer in the order given.
  QuorumCert qc;
  qc.view = 5;
  qc.block = 0x626c6bULL;
  qc.signers = {0, 1, 2, 4, 7, 9, 11};
  EXPECT_EQ(qc.digest(), 0x88f9d95207772db1ULL);
  EXPECT_EQ(qc.digest(), 0x88f9d95207772db1ULL);  // served from the cache
  TimeoutCert tc;
  tc.view = 9;
  tc.signers = {3, 1, 2};  // unsorted: order is part of the digest
  EXPECT_EQ(tc.digest(), 0x10a389e0a4eb3b08ULL);
  EXPECT_EQ(QuorumCert::genesis().digest(), 0x254f8eea6b80c219ULL);
}

TEST(CertificateTest, DigestFollowsTheHeaderNotTheCache) {
  // Two certificates sharing one body under different headers: the
  // cached fold belongs to the first header and must not leak into the
  // second.
  QuorumCert a{1, 2, {0, 1, 2}};
  QuorumCert b = a;
  b.view = 3;
  const std::uint64_t da = a.digest();
  QuorumCert fresh{3, 2, {0, 1, 2}};
  EXPECT_EQ(b.digest(), fresh.digest());
  EXPECT_NE(b.digest(), da);
  EXPECT_EQ(a.digest(), da);
}

// --- shared signer lists ---------------------------------------------------------

TEST(SignerListTest, CopySharesItsBody) {
  const QuorumCert qc{4, 9, {0, 1, 2, 3}};
  const QuorumCert copy = qc;
  EXPECT_TRUE(copy.signers.shares_body_with(qc.signers));
  EXPECT_EQ(copy.digest(), qc.digest());
  EXPECT_TRUE(copy.valid(4));
  const SignerList empty;
  EXPECT_FALSE(empty.shares_body_with(SignerList{}));
  EXPECT_TRUE(empty.covers(0));
}

TEST(SignerListTest, MutatingACopyDetachesIt) {
  QuorumCert original{4, 9, {0, 1, 2, 3}};
  const std::uint64_t digest = original.digest();
  ASSERT_TRUE(original.valid(4));

  QuorumCert pushed = original;
  pushed.signers.push_back(2);  // a duplicate signer
  EXPECT_FALSE(pushed.signers.shares_body_with(original.signers));
  EXPECT_FALSE(pushed.valid(4));
  EXPECT_NE(pushed.digest(), digest);

  QuorumCert written = original;
  written.signers[3] = 0;
  EXPECT_FALSE(written.valid(3));

  QuorumCert shrunk = original;
  shrunk.signers.resize(2);
  EXPECT_FALSE(shrunk.valid(4));

  // The original's body, digest and verdict are untouched.
  EXPECT_EQ(original.signers.size(), 4u);
  EXPECT_EQ(std::as_const(original.signers)[3], 3u);
  EXPECT_EQ(original.digest(), digest);
  EXPECT_TRUE(original.valid(4));
}

TEST(SignerListTest, InPlaceWritesClearTheCachedVerdict) {
  // The shape of a hand-built list: checked, then written through the
  // vector-like surface while it is the body's only holder.
  QuorumCert qc{7, 1, {}};
  qc.signers.resize(3);
  for (NodeId i = 0; i < 3; ++i) qc.signers[i] = i;
  EXPECT_TRUE(qc.valid(3));
  const std::uint64_t before = qc.digest();
  qc.signers[2] = 1;
  EXPECT_FALSE(qc.valid(3));
  EXPECT_NE(qc.digest(), before);
  qc.signers[2] = 2;
  EXPECT_TRUE(qc.valid(3));
  EXPECT_EQ(qc.digest(), before);
}

TEST(SignerListTest, ConcurrentFirstReadsAgree) {
  // Windowed lanes may be the first to ask a shared body for its verdict
  // and digest at the same time; both caches must fill without a race
  // (run under TSan) and every reader must see the answer a private body
  // with the same ids gives.
  for (const SignerList& ids :
       {SignerList{0, 2, 3, 5, 8, 13, 21}, SignerList{21, 13, 8, 5, 3, 2, 2}}) {
    const QuorumCert fresh{9, 4, SignerList(ids.begin(), ids.end())};
    const bool valid = fresh.valid(7);
    const std::uint64_t digest = fresh.digest();
    const QuorumCert shared{9, 4, ids};
    // Readers start together and read in place: copying first would order
    // them through the reference count and hide a racy cache from TSan.
    std::atomic<bool> go{false};
    std::vector<int> agreed(4, 0);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < agreed.size(); ++t) {
      readers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        agreed[t] = shared.valid(7) == valid && shared.digest() == digest;
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();
    EXPECT_EQ(agreed, std::vector<int>(4, 1));
  }
}

TEST(SignerListTest, BuiltFromARangeKeepsItsOrder) {
  const std::vector<NodeId> ids{5, 3, 8};
  const SignerList list(ids.begin(), ids.end());
  EXPECT_EQ(std::vector<NodeId>(list.begin(), list.end()), ids);
  EXPECT_TRUE(list.covers(3));
  const TimeoutCert tc{2, list};
  EXPECT_EQ(tc.digest(), (TimeoutCert{2, {5, 3, 8}}.digest()));
}

}  // namespace
}  // namespace bftsim
