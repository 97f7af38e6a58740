// PayloadTypeRegistry: every message kind has exactly one name, and the
// name maps back to the kind.
#include "net/payload_type.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace bftsim {
namespace {

PayloadType user_tag(std::uint16_t offset) {
  return static_cast<PayloadType>(to_index(PayloadType::kUserBase) + offset);
}

TEST(PayloadTypeRegistryTest, EveryBuiltinHasOneNameThatMapsBack) {
  const PayloadTypeRegistry& registry = PayloadTypeRegistry::instance();
  std::set<std::string> names;
  for (std::uint16_t i = 1; i < to_index(PayloadType::kBuiltinSentinel); ++i) {
    const auto type = static_cast<PayloadType>(i);
    const std::string& name = registry.name(type);
    EXPECT_FALSE(name.empty()) << "builtin tag " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << name << " names two tags";
    EXPECT_EQ(registry.find(name), type) << name;
  }
  EXPECT_EQ(registry.name(PayloadType::kCorrupt), "corrupt");
}

TEST(PayloadTypeRegistryTest, UnknownHasTheEmptyName) {
  const PayloadTypeRegistry& registry = PayloadTypeRegistry::instance();
  EXPECT_EQ(registry.name(PayloadType::kUnknown), "");
  EXPECT_EQ(registry.find(""), PayloadType::kUnknown);
  EXPECT_FALSE(registry.find("no/such-kind").has_value());
  // An unregistered user tag has no name either.
  const PayloadType user = user_tag(40);
  EXPECT_EQ(registry.name(user), "");
  EXPECT_FALSE(registry.contains(user));
}

TEST(PayloadTypeRegistryTest, AddRejectsAReusedNameOrId) {
  PayloadTypeRegistry& registry = PayloadTypeRegistry::instance();
  const PayloadType user = user_tag(41);
  EXPECT_THROW(registry.add(user, "pbft/prepare"), std::invalid_argument);
  EXPECT_FALSE(registry.contains(user));
  EXPECT_THROW(registry.add(PayloadType::kPbftPrepare, "pbft/other"),
               std::invalid_argument);

  registry.add(user, "test/registry-user");
  registry.add(user, "test/registry-user");  // same pair again: no-op
  EXPECT_EQ(registry.find("test/registry-user"), user);
  EXPECT_EQ(registry.name(user), "test/registry-user");
}

}  // namespace
}  // namespace bftsim
