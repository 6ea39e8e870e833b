// Routing policy engine: ordered match/action rules applied to routes at
// import or export, in the style of the Routing Arbiter's policy filters.
//
// The paper notes that "each route may be matched against a potentially
// extensive list of policy filters" — this is that list, sized to what the
// simulated routers use: match on the neighbouring AS or a community, then
// deny, set LOCAL_PREF or strip communities. Rules read only the path
// attributes, never the prefix, so a chain's verdict and rewrite are a
// function of the attribute set alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/attributes.h"

namespace iri::bgp {

// What a rule matches on; unset fields match anything. All set fields must
// match (conjunction).
struct MatchSpec {
  std::optional<Asn> neighbor_as;  // first AS of path
  std::optional<Community> has_community;

  bool Matches(const PathAttributes& attrs) const;
};

// What a matching rule does to the attributes.
struct ActionSpec {
  bool deny = false;  // drop the route
  std::optional<std::uint32_t> set_local_pref;
  bool strip_communities = false;

  void ApplyTo(PathAttributes& attrs) const;
};

struct PolicyRule {
  std::string name;  // diagnostic only
  MatchSpec match;
  ActionSpec action;
};

// First-match-wins rule chain with a configurable default disposition.
class Policy {
 public:
  // Accepts everything unmodified (the empty policy).
  static Policy AcceptAll() { return Policy(true); }
  // Denies anything not explicitly permitted (strict import policy).
  static Policy DenyAll() { return Policy(false); }

  Policy& Add(PolicyRule rule) {
    rules_.push_back(std::move(rule));
    return *this;
  }

  // Applies the chain: rewrites `attrs` in place and returns false when the
  // route is denied (in which case `attrs` is unmodified — deny
  // short-circuits before any action runs).
  bool Apply(PathAttributes& attrs) const;

  std::size_t size() const { return rules_.size(); }

  // True when the chain can never rewrite or deny a route (AcceptAll with no
  // rules). Callers use this to skip the attribute copy that Apply would
  // otherwise need.
  bool IsIdentity() const { return rules_.empty() && default_accept_; }

 private:
  explicit Policy(bool default_accept) : default_accept_(default_accept) {}

  std::vector<PolicyRule> rules_;
  bool default_accept_;
};

}  // namespace iri::bgp
