// Leaf automorphisms of a compiled pattern (DESIGN.md §4 "Symmetric
// patterns").
//
// Two terminating leaves are interchangeable when some automorphism maps
// one onto the other: then every match anchored at the one maps to a
// match anchored at the other, so the matcher searches one leaf per orbit
// and maps its matches onto the rest.  An automorphism is found by
// backtracking over leaf placements x -> π(x): a placement must keep the
// attribute kinds and literals, extend the variable renaming as a
// bijection, and relate π(x) to every placed π(z) exactly as x relates to
// z.  Leaves are placed breadth-first from the anchor over constraints and
// shared variables, so the renaming fixes most placements at once (a
// deadlock cycle's rotation needs no backtracking).
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "pattern/compiled.h"

namespace ocep::pattern {
namespace {

/// Tentative placements all of one pattern's searches may take together;
/// past it the remaining leaves are their own representatives.
constexpr std::uint64_t kStepBudget = 1U << 16;
constexpr std::uint32_t kUnmapped = 0xffffffffU;
/// Leaves the search handles (the matcher takes at most 63); a larger
/// pattern is left without symmetry.  Each leaf holds at most three
/// variables.
constexpr std::size_t kMaxLeaves = 64;
constexpr std::size_t kMaxVariables = 3 * kMaxLeaves;

std::array<const Attr*, 3> attrs(const Leaf& leaf) {
  return {&leaf.process, &leaf.type, &leaf.text};
}

/// Same attribute kinds and literals: what an automorphism keeps of a
/// leaf besides its constraints.
bool same_shape(const Leaf& x, const Leaf& y) {
  const auto ax = attrs(x);
  const auto ay = attrs(y);
  for (std::size_t i = 0; i < 3; ++i) {
    if (ax[i]->kind != ay[i]->kind ||
        (ax[i]->kind == Attr::Kind::kLiteral &&
         ax[i]->literal != ay[i]->literal)) {
      return false;
    }
  }
  return true;
}

/// The search's state is sized for kMaxLeaves up front, so a pattern's
/// searches allocate only their results (compile() runs at set-up).
class AutomorphismSearch {
 public:
  explicit AutomorphismSearch(const CompiledPattern& pattern)
      : pattern_(pattern), k_(pattern.size()) {
    for (std::size_t x = 0; x < k_; ++x) {
      std::fill_n(rel_[x].begin(), k_, std::uint8_t{0});
      degrees_[x].fill(0);
      links_[x] = 0;
    }
    for (const Constraint& c : pattern.constraints) {
      const auto side = static_cast<std::size_t>(c.op);
      const bool unordered = c.op == ConstraintOp::kConcurrent;
      rel_[c.a][c.b] |= static_cast<std::uint8_t>(1U << side);
      ++degrees_[c.a][side];
      ++degrees_[c.b][unordered ? side : 4 + side];
      if (unordered) {
        rel_[c.b][c.a] |= static_cast<std::uint8_t>(1U << side);
      }
      links_[c.a] |= bit(c.b);
      links_[c.b] |= bit(c.a);
    }
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t y = x + 1; y < k_; ++y) {
        if (share_variable(pattern.leaves[x], pattern.leaves[y])) {
          links_[x] |= bit(y);
          links_[y] |= bit(x);
        }
      }
    }
    std::fill_n(sigma_.begin(), pattern.variable_count, kUnmapped);
    std::fill_n(sigma_inv_.begin(), pattern.variable_count, kUnmapped);
  }

  /// Writes an automorphism π with π(from) = to into `out`; false when
  /// none was found within the remaining budget.
  bool find(std::uint32_t from, std::uint32_t to,
            std::vector<std::uint32_t>& out) {
    if (!compatible(from, to) || steps_ > kStepBudget) {
      return false;
    }
    order_from(from);
    first_target_ = to;
    const bool found = extend(0);
    if (found) {
      out.assign(perm_.begin(),
                 perm_.begin() + static_cast<std::ptrdiff_t>(k_));
    }
    used_ = 0;
    std::fill_n(sigma_.begin(), pattern_.variable_count, kUnmapped);
    std::fill_n(sigma_inv_.begin(), pattern_.variable_count, kUnmapped);
    trail_size_ = 0;
    return found;
  }

 private:
  static std::uint64_t bit(std::size_t leaf) { return 1ULL << leaf; }

  static bool share_variable(const Leaf& x, const Leaf& y) {
    for (const Attr* a : attrs(x)) {
      for (const Attr* b : attrs(y)) {
        if (a->kind == Attr::Kind::kVariable &&
            b->kind == Attr::Kind::kVariable && a->variable == b->variable) {
          return true;
        }
      }
    }
    return false;
  }

  /// The same shape and as many constraints of each operator and side:
  /// what any automorphism keeps.
  [[nodiscard]] bool compatible(std::uint32_t x, std::uint32_t y) const {
    return degrees_[x] == degrees_[y] &&
           same_shape(pattern_.leaves[x], pattern_.leaves[y]);
  }

  /// Placement order: breadth-first from `from` over constraints and
  /// shared variables, then each unreached leaf as a new root.
  void order_from(std::uint32_t from) {
    std::size_t size = 0;
    std::uint64_t seen = 0;
    for (std::uint32_t root = from, next = 0; size < k_;) {
      if ((seen & bit(root)) == 0) {
        seen |= bit(root);
        std::size_t head = size;
        order_[size++] = root;
        while (head < size) {
          for (std::uint64_t rest = links_[order_[head++]] & ~seen;
               rest != 0; rest &= rest - 1) {
            const auto y = static_cast<std::uint32_t>(std::countr_zero(rest));
            seen |= bit(y);
            order_[size++] = y;
          }
        }
      }
      while (next < k_ && (seen & bit(next)) != 0) {
        ++next;
      }
      root = next;
    }
  }

  bool extend(std::size_t depth) {
    if (depth == k_) {
      return true;
    }
    const std::uint32_t x = order_[depth];
    const std::uint32_t lo = depth == 0 ? first_target_ : 0;
    const std::uint32_t hi =
        depth == 0 ? first_target_ + 1 : static_cast<std::uint32_t>(k_);
    for (std::uint32_t y = lo; y < hi; ++y) {
      if ((used_ & bit(y)) != 0 || !compatible(x, y)) {
        continue;
      }
      if (++steps_ > kStepBudget) {
        return false;
      }
      const std::size_t mark = trail_size_;
      if (place(x, y, depth) && extend(depth + 1)) {
        return true;
      }
      used_ &= ~bit(y);
      while (trail_size_ > mark) {
        const std::uint32_t v = trail_[--trail_size_];
        sigma_inv_[sigma_[v]] = kUnmapped;
        sigma_[v] = kUnmapped;
      }
      if (steps_ > kStepBudget) {
        return false;
      }
    }
    return false;
  }

  /// Places x at y when the renaming extends and every placed leaf keeps
  /// its relation to x; the caller undoes a failed or abandoned placement.
  bool place(std::uint32_t x, std::uint32_t y, std::size_t depth) {
    perm_[x] = y;
    used_ |= bit(y);
    const auto ax = attrs(pattern_.leaves[x]);
    const auto ay = attrs(pattern_.leaves[y]);
    for (std::size_t i = 0; i < 3; ++i) {
      if (ax[i]->kind != Attr::Kind::kVariable) {
        continue;
      }
      const std::uint32_t vx = ax[i]->variable;
      const std::uint32_t vy = ay[i]->variable;
      if (sigma_[vx] == kUnmapped && sigma_inv_[vy] == kUnmapped) {
        sigma_[vx] = vy;
        sigma_inv_[vy] = vx;
        trail_[trail_size_++] = vx;
      } else if (sigma_[vx] != vy) {
        return false;
      }
    }
    for (std::size_t d = 0; d < depth; ++d) {
      const std::uint32_t z = order_[d];
      const std::uint32_t pz = perm_[z];
      if (rel_[x][z] != rel_[y][pz] || rel_[z][x] != rel_[pz][y]) {
        return false;
      }
    }
    return true;
  }

  const CompiledPattern& pattern_;
  std::size_t k_ = 0;
  /// Operator bits from one leaf to another.
  std::array<std::array<std::uint8_t, kMaxLeaves>, kMaxLeaves> rel_;
  /// Per leaf, its constraints per operator: as `a`, then as `b` (both
  /// count as `a` for the unordered '||').
  std::array<std::array<std::uint32_t, 8>, kMaxLeaves> degrees_;
  /// Per leaf, the leaves it shares a constraint or a variable with.
  std::array<std::uint64_t, kMaxLeaves> links_;
  std::array<std::uint32_t, kMaxLeaves> order_;
  std::uint32_t first_target_ = 0;
  std::array<std::uint32_t, kMaxLeaves> perm_;
  std::uint64_t used_ = 0;
  /// The variable renaming and its inverse; trail_ lists the variables
  /// renamed, in placement order.
  std::array<std::uint32_t, kMaxVariables> sigma_;
  std::array<std::uint32_t, kMaxVariables> sigma_inv_;
  std::array<std::uint32_t, kMaxVariables> trail_;
  std::size_t trail_size_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace

void find_symmetry(CompiledPattern& pattern) {
  pattern.orbit_rep.clear();
  pattern.orbit_map.clear();
  // Most patterns have no two terminating leaves of one shape: they need
  // no search and keep both lists empty.
  const std::vector<std::uint32_t>& terminating = pattern.terminating;
  bool twins = false;
  for (std::size_t i = 0; i < terminating.size() && !twins; ++i) {
    for (std::size_t j = i + 1; j < terminating.size() && !twins; ++j) {
      twins = same_shape(pattern.leaves[terminating[i]],
                         pattern.leaves[terminating[j]]);
    }
  }
  const std::size_t k = pattern.size();
  if (!twins || k > kMaxLeaves) {
    return;
  }
  std::vector<std::uint32_t> rep(k);
  std::iota(rep.begin(), rep.end(), 0U);
  std::vector<std::vector<std::uint32_t>> map(k);
  AutomorphismSearch search(pattern);
  std::uint64_t reps = 0;
  bool any = false;
  for (const std::uint32_t leaf : terminating) {
    for (std::uint64_t rest = reps; rest != 0; rest &= rest - 1) {
      const auto r = static_cast<std::uint32_t>(std::countr_zero(rest));
      if (search.find(r, leaf, map[leaf])) {
        rep[leaf] = r;
        any = true;
        break;
      }
    }
    if (rep[leaf] == leaf) {
      reps |= 1ULL << leaf;
    }
  }
  if (any) {
    pattern.orbit_rep = std::move(rep);
    pattern.orbit_map = std::move(map);
  }
}

}  // namespace ocep::pattern
