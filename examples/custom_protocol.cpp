// Custom protocol + custom attack, end to end — the extensibility the
// paper advertises (§III-A3, §III-A5): a protocol is one class with
// on_message / on_timer callbacks reporting through the context, an attack
// is one class observing every message in flight. This example implements
//
//   "majority-gossip": a leaderless one-shot agreement toy. Every node
//   broadcasts its input; after hearing n-f inputs it adopts the majority
//   and broadcasts a confirmation; n-f matching confirmations decide. (Not
//   a real BFT protocol — it is the smallest thing that exercises the
//   whole API surface.)
//
//   "jitter-amplifier": an attacker that doubles the network delay of
//   every cross-node message, demonstrating timing attacks.
//
// Both are registered under names and selected through an ordinary
// SimConfig, exactly like the builtins.
#include <cstdio>
#include <map>

#include "attacker/registry.hpp"
#include "protocols/registry.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace bftsim;

// Custom payloads pick dispatch tags at or above kUserBase, and each tag
// gets a name registered next to the protocol (register_extensions below):
// traces record the name, and trace readers map it back to the tag.
struct GossipValue final : Payload {
  static constexpr PayloadType kType = PayloadType::kUserBase;
  Value value;
  explicit GossipValue(Value v) : Payload(kType), value(v) {}
  std::uint64_t digest() const noexcept override { return hash_words({value}); }
};

struct GossipConfirm final : Payload {
  static constexpr PayloadType kType =
      static_cast<PayloadType>(to_index(PayloadType::kUserBase) + 1);
  Value value;
  explicit GossipConfirm(Value v) : Payload(kType), value(v) {}
  std::uint64_t digest() const noexcept override {
    return hash_words({value, 0xC0ULL});
  }
};

class MajorityGossipNode final : public Node {
 public:
  void on_start(Context& ctx) override {
    // Inputs: node id parity, so the majority is well defined.
    const Value input = ctx.id() % 2;
    ctx.broadcast(make_payload<GossipValue>(input));
    // Safety net: if gossip stalls, re-broadcast after 4λ.
    ctx.set_timer(4 * ctx.lambda(), 0);
  }

  void on_message(const Message& msg, Context& ctx) override {
    const std::uint32_t quorum = ctx.n() - ctx.f();
    if (const auto* value = msg.as<GossipValue>()) {
      if (!values_.emplace(msg.src, value->value).second) return;
      if (values_.size() == quorum && !confirmed_) {
        confirmed_ = true;
        std::size_t ones = 0;
        for (const auto& [node, v] : values_) ones += v;
        adopted_ = ones * 2 >= values_.size() ? 1 : 0;
        ctx.broadcast(make_payload<GossipConfirm>(adopted_));
      }
    } else if (const auto* confirm = msg.as<GossipConfirm>()) {
      if (++confirms_[confirm->value] >= quorum && !decided_) {
        decided_ = true;
        ctx.report_decision(confirm->value);
      }
    }
  }

  void on_timer(const TimerEvent&, Context& ctx) override {
    if (decided_) return;
    ctx.broadcast(make_payload<GossipValue>(ctx.id() % 2));
    if (confirmed_) ctx.broadcast(make_payload<GossipConfirm>(adopted_));
    ctx.set_timer(4 * ctx.lambda(), 0);
  }

 private:
  std::map<NodeId, Value> values_;
  std::map<Value, std::uint32_t> confirms_;
  bool confirmed_ = false;
  bool decided_ = false;
  Value adopted_ = 0;
};

class JitterAmplifier final : public Attacker {
 public:
  Disposition attack(MessageInFlight& in_flight, AttackerContext&) override {
    in_flight.delay *= 2;  // timing attack: everything is twice as slow
    return Disposition::kDeliver;
  }
};

void register_extensions() {
  PayloadTypeRegistry::instance().add(GossipValue::kType, "gossip/value");
  PayloadTypeRegistry::instance().add(GossipConfirm::kType, "gossip/confirm");
  ProtocolRegistry::instance().add(
      {"majority-gossip", NetModel::kPartialSync, byzantine_third, 1,
       [](NodeId, const SimConfig&) -> std::unique_ptr<Node> {
         return std::make_unique<MajorityGossipNode>();
       }});
  AttackRegistry::instance().add("jitter-amplifier", [](const SimConfig&) {
    return std::make_unique<JitterAmplifier>();
  });
}

void run_and_print(const char* label, const SimConfig& cfg) {
  const RunResult result = run_simulation(cfg);
  if (!result.terminated) {
    std::printf("%-38s -> did not terminate\n", label);
    return;
  }
  std::printf("%-38s -> decided %llu in %.0f ms, %llu messages\n", label,
              static_cast<unsigned long long>(result.decisions.front().value),
              result.latency_ms(),
              static_cast<unsigned long long>(result.messages_sent));
}

}  // namespace

int main() {
  register_extensions();

  SimConfig cfg;
  cfg.protocol = "majority-gossip";
  cfg.n = 16;
  cfg.lambda_ms = 1000;
  cfg.delay = DelaySpec::normal(250, 50);
  cfg.seed = 7;

  std::printf("== custom protocol through the standard pipeline ==\n");
  run_and_print("majority-gossip (clean)", cfg);

  SimConfig slow = cfg;
  slow.attack = "jitter-amplifier";
  run_and_print("majority-gossip + jitter-amplifier", slow);

  SimConfig faulty = cfg;
  faulty.honest = 11;
  run_and_print("majority-gossip (5 fail-stops)", faulty);

  // The custom protocol coexists with the builtins in one registry.
  std::printf("\nregistered protocols now:");
  for (const std::string& name : ProtocolRegistry::instance().names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 0;
}
