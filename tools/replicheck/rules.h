// The original per-file token rules (raw-rng, wall-clock, addr-identity,
// unordered-iter, send-size, codec-registry, raw-mutex, lock-rank,
// wait-state, raw-io, any-copy), ported onto the shared Tree/Reporter
// model. The flow-aware passes live in lock_graph.h and det_taint.h.

#ifndef REPLICHECK_RULES_H_
#define REPLICHECK_RULES_H_

#include <set>
#include <string>

#include "model.h"

namespace replicheck {

struct TokenRuleStats {
  int lock_sites = 0;  // lock_guard/scoped_lock/unique_lock sites seen.
};

/// Runs every token rule over the tree. `declared_ranks` is the set of
/// LockRank names from the rank table (empty when no table parsed, in
/// which case the lock-rank rule stays quiet).
void RunTokenRules(Tree& tree, const std::set<std::string>& declared_ranks,
                   Reporter& rep, TokenRuleStats* stats);

}  // namespace replicheck

#endif  // REPLICHECK_RULES_H_
