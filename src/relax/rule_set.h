#ifndef TRINIT_RELAX_RULE_SET_H_
#define TRINIT_RELAX_RULE_SET_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relax/rule.h"
#include "util/result.h"
#include "xkg/xkg.h"

namespace trinit::relax {

/// An indexed collection of relaxation rules.
///
/// Rules are indexed by the predicate term of their first LHS pattern
/// (constant predicate -> that id/text; variable predicate -> generic
/// bucket) so the rewriter only attempts rules that can possibly fire on
/// a pattern. A copy is deep and independent — the indexes hold
/// positions, not pointers — which is how an engine write builds its
/// next rule set without touching the published one.
class RuleSet {
 public:
  RuleSet() = default;
  RuleSet(const RuleSet&) = default;
  RuleSet& operator=(const RuleSet&) = default;
  RuleSet(RuleSet&&) = default;
  RuleSet& operator=(RuleSet&&) = default;

  /// Validates and adds a rule; duplicate (ToString-identical) rules keep
  /// the max weight instead of duplicating.
  Status Add(Rule rule);

  size_t size() const { return rules_.size(); }
  const std::vector<Rule>& rules() const { return rules_; }

  /// Rules whose first LHS pattern can fire on a pattern with predicate
  /// term `p` (constant-indexed rules for p plus variable-predicate
  /// rules). `p` may be any query term.
  std::vector<const Rule*> CandidatesForPredicate(
      const query::Term& p) const;

  /// Number of rules of each kind (ablation toggles, bench A1).
  size_t CountOfKind(RuleKind kind) const;

  /// Copy of this rule set without rules of the given kind.
  RuleSet WithoutKind(RuleKind kind) const;

  /// Re-resolves every constant term of every rule against `dict`
  /// (labels are authoritative; ids are cache). Required after the XKG
  /// is rebuilt — e.g. by `core::Trinit::ExtendKg` — because dictionary
  /// ids are not stable across rebuilds.
  void ResolveAgainst(const rdf::Dictionary& dict);

 private:
  static std::string PredicateKey(const query::Term& p);

  std::vector<Rule> rules_;
  std::unordered_map<std::string, size_t> dedup_;       // ToString -> index
  std::unordered_map<std::string, std::vector<size_t>> by_predicate_;
  std::vector<size_t> generic_;  // variable-predicate rules
};

/// Extension point of the paper: "TriniT has an API for relaxation
/// operators, which administrators and advanced users can use to plug in
/// their code for generating relaxation rules and their weights" (§3).
class RelaxationOperator {
 public:
  virtual ~RelaxationOperator() = default;

  /// Operator name for logs/ablation tables.
  virtual std::string name() const = 0;

  /// Appends generated rules to `rules`.
  virtual Status Generate(const xkg::Xkg& xkg, RuleSet* rules) = 0;
};

}  // namespace trinit::relax

#endif  // TRINIT_RELAX_RULE_SET_H_
