#include "net/payload_type.hpp"

#include <stdexcept>

#include "crypto/hash.hpp"

namespace bftsim {

PayloadTypeRegistry& PayloadTypeRegistry::instance() {
  static PayloadTypeRegistry registry;
  return registry;
}

PayloadTypeRegistry::PayloadTypeRegistry()
    : entries_(to_index(PayloadType::kBuiltinSentinel),
               Entry{"", fnv1a64("")}) {
  add(PayloadType::kPbftPrePrepare, "pbft/pre-prepare");
  add(PayloadType::kPbftPrepare, "pbft/prepare");
  add(PayloadType::kPbftCommit, "pbft/commit");
  add(PayloadType::kPbftViewChange, "pbft/view-change");
  add(PayloadType::kPbftNewView, "pbft/new-view");

  add(PayloadType::kHotStuffProposal, "hotstuff/proposal");
  add(PayloadType::kHotStuffVote, "hotstuff/vote");
  add(PayloadType::kHotStuffBlockRequest, "hotstuff/block-req");
  add(PayloadType::kHotStuffBlockResponse, "hotstuff/block-resp");

  add(PayloadType::kLibraTimeout, "librabft/timeout");
  add(PayloadType::kLibraTimeoutCertificate, "librabft/tc");

  add(PayloadType::kTendermintProposal, "tendermint/proposal");
  add(PayloadType::kTendermintPrevote, "tendermint/prevote");
  add(PayloadType::kTendermintPrecommit, "tendermint/precommit");

  add(PayloadType::kSyncHotStuffProposal, "sync-hs/proposal");
  add(PayloadType::kSyncHotStuffVote, "sync-hs/vote");
  add(PayloadType::kSyncHotStuffBlame, "sync-hs/blame");

  add(PayloadType::kAddElect, "add/elect");
  add(PayloadType::kAddPropose, "add/propose");
  add(PayloadType::kAddPrepare, "add/prepare");
  add(PayloadType::kAddVote, "add/vote");
  add(PayloadType::kAddCommit, "add/commit");

  add(PayloadType::kAlgorandProposal, "algorand/proposal");
  add(PayloadType::kAlgorandSoftVote, "algorand/soft-vote");
  add(PayloadType::kAlgorandCertVote, "algorand/cert-vote");
  add(PayloadType::kAlgorandNextVote, "algorand/next-vote");

  add(PayloadType::kBrachaInit, "asyncba/init");
  add(PayloadType::kBrachaEcho, "asyncba/echo");
  add(PayloadType::kBrachaReady, "asyncba/ready");

  add(PayloadType::kCorrupt, "corrupt");
}

void PayloadTypeRegistry::add(PayloadType id, std::string_view name) {
  const std::size_t index = to_index(id);
  if (id == PayloadType::kUnknown || name.empty()) {
    throw std::invalid_argument(
        "payload type registration needs a nonzero id and a non-empty name");
  }
  if (contains(id) && this->name(id) != name) {
    throw std::invalid_argument("payload type id " + std::to_string(index) +
                                " already registered as " + this->name(id));
  }
  if (const auto holder = find(name); holder && *holder != id) {
    throw std::invalid_argument("payload type name " + std::string(name) +
                                " already registered for id " +
                                std::to_string(to_index(*holder)));
  }
  if (index >= entries_.size()) entries_.resize(index + 1, entries_[0]);
  entries_[index] = Entry{std::string(name), fnv1a64(name)};
}

std::optional<PayloadType> PayloadTypeRegistry::find(
    std::string_view name) const {
  // Linear scan: a few dozen kinds, and callers resolve a name once (the
  // delay-schedule attack at build time, the binary reader per string
  // frame) or per record only in the JSONL reader, whose JSON parse costs
  // far more.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<PayloadType>(i);
  }
  return std::nullopt;
}

}  // namespace bftsim
