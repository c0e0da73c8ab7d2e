// Compiled pattern: the flat leaf/constraint form the matcher executes
// (the paper's pattern tree of Fig 2, §IV-A, flattened).
//
// Each operand occurrence in the pattern expression becomes one leaf,
// except that every occurrence of an event variable shares a single leaf
// (§III-C).  Operators between parenthesized sub-expressions expand
// pairwise over the operand sets: `||` per eq. (3) (all pairs concurrent)
// and `->` as strong precedence (all pairs ordered), which keeps every
// pattern a conjunction of binary constraints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_pool.h"
#include "model/event.h"

namespace ocep::pattern {

/// Compiled attribute: how one of [process, type, text] constrains events.
struct Attr {
  enum class Kind : std::uint8_t { kWildcard, kLiteral, kVariable };
  Kind kind = Kind::kWildcard;
  Symbol literal = kEmptySymbol;  ///< for kLiteral
  std::uint32_t variable = 0;     ///< for kVariable: index into the binding
                                  ///< environment
};

/// A leaf of the pattern tree: one primitive-event occurrence.
struct Leaf {
  std::string class_name;  ///< for diagnostics and match reporting
  Attr process;
  Attr type;
  Attr text;
};

enum class ConstraintOp : std::uint8_t {
  kBefore,         ///< a -> b
  kBeforeLimited,  ///< a -lim-> b: a -> b and no event of a's class is
                   ///< causally between them (Fig 1)
  kConcurrent,     ///< a || b
  kPartner,        ///< a <-> b: b receives the message a sent
};

/// Binary causal constraint between leaves a and b.
struct Constraint {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  ConstraintOp op = ConstraintOp::kBefore;
};

struct CompiledPattern {
  std::vector<Leaf> leaves;
  std::vector<Constraint> constraints;
  std::uint32_t variable_count = 0;
  /// Variable names by index, for diagnostics.
  std::vector<std::string> variable_names;

  /// Leaves at which a newly arrived event can complete a match: those
  /// with no outgoing kBefore edge and not the send side of a kPartner
  /// (the receive is always delivered after the send).  §V-B's
  /// "terminating events".
  std::vector<std::uint32_t> terminating;

  /// Leaf symmetry (DESIGN.md §4 "Symmetric patterns").  An automorphism
  /// is a leaf permutation π that maps every leaf's [process, type, text]
  /// onto π(leaf)'s — literals equal, variables renamed by one consistent
  /// bijection — and the constraint set onto itself.  Per leaf, the
  /// terminating leaf whose search answers it (itself for a
  /// representative and for every non-terminating leaf), and, for a leaf
  /// answered by another, one automorphism π with π(representative) =
  /// leaf (empty otherwise).  A leaf the bounded search could not place
  /// is its own representative.  Both lists are empty when every
  /// terminating leaf is its own representative.
  std::vector<std::uint32_t> orbit_rep;
  std::vector<std::vector<std::uint32_t>> orbit_map;

  [[nodiscard]] std::size_t size() const noexcept { return leaves.size(); }
};

/// Compiles pattern-definition text.  Interns literals into `pool`.
/// Throws ParseError (syntax) or PatternError (semantics: unknown class,
/// '<->' between compound operands, no terminating leaf, ...).
[[nodiscard]] CompiledPattern compile(std::string_view source,
                                      StringPool& pool);

/// Fills `pattern.orbit_rep` and `pattern.orbit_map` from its leaves and
/// constraints (compile() calls it).  Each automorphism is found by a
/// pruned backtracking search; all searches of one pattern share a fixed
/// step budget, past which the remaining leaves are their own
/// representatives.
void find_symmetry(CompiledPattern& pattern);

}  // namespace ocep::pattern
