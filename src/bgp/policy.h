// Routing policy engine: ordered match/action rules applied to routes at
// import or export, in the style of the Routing Arbiter's policy filters.
//
// The paper notes that "each route may be matched against a potentially
// extensive list of policy filters" — this is that list. Policies also let
// scenario code model the ISPs that filter long prefixes ("a more draconian
// version of enforcing stability").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/path_regex.h"
#include "bgp/route.h"

namespace iri::bgp {

// What a rule matches on; unset fields match anything. All set fields must
// match (conjunction).
struct MatchSpec {
  std::optional<Prefix> covered_by;      // route's prefix inside this block
  std::optional<Prefix> exact;           // route's prefix exactly this
  std::uint8_t min_length = 0;           // prefix length range
  std::uint8_t max_length = 32;
  std::optional<Asn> path_contains;      // AS anywhere in AS_PATH
  std::optional<Asn> origin_as;          // last AS of path
  std::optional<Asn> neighbor_as;        // first AS of path
  std::optional<Community> has_community;
  std::optional<PathRegex> path_regex;   // AS-path regular expression

  bool Matches(const Route& route) const;
};

// What a matching rule does to the route.
struct ActionSpec {
  bool deny = false;                          // drop the route
  std::optional<std::uint32_t> set_local_pref;
  std::optional<std::uint32_t> set_med;
  bool clear_med = false;
  std::uint8_t prepend_count = 0;             // prepend `prepend_asn` N times
  Asn prepend_asn = 0;
  std::vector<Community> add_communities;
  bool strip_communities = false;

  void ApplyTo(Route& route) const;
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
    const MatchSpec& m = rule.match;
    reads_prefix_ = reads_prefix_ || m.covered_by || m.exact ||
                    m.min_length > 0 || m.max_length < 32;
    rules_.push_back(std::move(rule));
    return *this;
  }

  // Applies the chain. Returns nullopt when the route is denied; otherwise
  // the (possibly rewritten) route.
  std::optional<Route> Apply(const Route& route) const;

  // Copy-free variant for the hot update path: rewrites `route` in place
  // and returns false when the route is denied (in which case `route` is
  // unmodified — deny short-circuits before any action runs).
  bool ApplyInPlace(Route& route) const;

  std::size_t size() const { return rules_.size(); }

  // True when the chain can never rewrite or deny a route (AcceptAll with no
  // rules). Callers use this to skip the per-prefix route copy that
  // ApplyInPlace would otherwise need.
  bool IsIdentity() const { return rules_.empty() && default_accept_; }

  // True when some rule matches on the route's prefix. Otherwise the
  // chain's verdict and rewrite are a function of the attribute set alone
  // (actions never read the prefix), which is what lets a router memoise
  // its exports per attribute set.
  bool ReadsPrefix() const { return reads_prefix_; }

 private:
  explicit Policy(bool default_accept) : default_accept_(default_accept) {}

  std::vector<PolicyRule> rules_;
  bool default_accept_;
  bool reads_prefix_ = false;
};

}  // namespace iri::bgp
