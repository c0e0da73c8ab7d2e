// Lexer, parser, and compiler tests for the pattern language (§III, §IV-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "apps/patterns.h"
#include "common/error.h"
#include "common/string_pool.h"
#include "pattern/compiled.h"
#include "pattern/lexer.h"
#include "pattern/parser.h"

namespace ocep::pattern {
namespace {

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  const auto tokens = lex("A := [$1, Synch_Leader, 'x y']; # comment\n"
                          "pattern := A -> B && C || D <-> E;");
  std::vector<TokenKind> kinds;
  for (const Token& token : tokens) {
    kinds.push_back(token.kind);
  }
  const std::vector<TokenKind> expected{
      TokenKind::kIdent, TokenKind::kAssign, TokenKind::kLBracket,
      TokenKind::kVariable, TokenKind::kComma, TokenKind::kIdent,
      TokenKind::kComma, TokenKind::kString, TokenKind::kRBracket,
      TokenKind::kSemicolon, TokenKind::kIdent, TokenKind::kAssign,
      TokenKind::kIdent, TokenKind::kArrow, TokenKind::kIdent,
      TokenKind::kAnd, TokenKind::kIdent, TokenKind::kConcur,
      TokenKind::kIdent, TokenKind::kPartner, TokenKind::kIdent,
      TokenKind::kSemicolon, TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(tokens[7].text, "x y");
  EXPECT_EQ(tokens[3].text, "1");
}

TEST(Lexer, TracksPositionsAndRejectsGarbage) {
  try {
    static_cast<void>(lex("A := [a, b, c];\n  @"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 2);
    EXPECT_EQ(error.column(), 3);
  }
  EXPECT_THROW(static_cast<void>(lex("A := 'unterminated")), ParseError);
  EXPECT_THROW(static_cast<void>(lex("$")), ParseError);
}

TEST(Parser, ParsesThePaperOrderingPattern) {
  const AstProgram program = parse(R"(
      Synch    := [$1, Synch_Leader, $3];
      Snapshot := [$2, Take_Snapshot, $3];
      Update   := [$2, Make_Update, ''];
      Forward  := [$2, Forward_Snapshot, $3];
      Snapshot $Diff;
      Update $Write;
      pattern := (Synch -> $Diff) && ($Diff -> $Write) &&
                 ($Write -> Forward);
  )");
  EXPECT_EQ(program.classes.size(), 4U);
  EXPECT_EQ(program.variables.size(), 2U);
  EXPECT_EQ(program.variables[0].class_name, "Snapshot");
  EXPECT_EQ(program.variables[0].var_name, "Diff");
  ASSERT_NE(program.pattern, nullptr);
  const auto& conj = std::get<AstConj>(program.pattern->node);
  EXPECT_EQ(conj.terms.size(), 3U);
}

TEST(Parser, RejectsMalformedPrograms) {
  EXPECT_THROW(parse("A := [a, b];  pattern := A;"), ParseError);  // 2 attrs
  EXPECT_THROW(parse("A := [a, b, c];"), ParseError);          // no pattern
  EXPECT_THROW(parse("pattern := ;"), ParseError);
  EXPECT_THROW(parse("pattern := A -> ;"), ParseError);
  EXPECT_THROW(parse("pattern := (A -> B;"), ParseError);
}

TEST(Compile, EventVariablesShareOneLeaf) {
  StringPool pool;
  const CompiledPattern compiled = compile(R"(
      A := ['', a, ''];
      B := ['', b, ''];
      C := ['', c, ''];
      A $X;
      pattern := ($X -> B) && ($X -> C);
  )", pool);
  // $X appears twice but is one leaf; B and C are one each.
  EXPECT_EQ(compiled.size(), 3U);
  EXPECT_EQ(compiled.constraints.size(), 2U);
}

TEST(Compile, RepeatedClassNamesAreDistinctLeaves) {
  StringPool pool;
  const CompiledPattern compiled = compile(R"(
      A := ['', a, ''];
      B := ['', b, ''];
      pattern := (A -> B) && (A -> B);
  )", pool);
  EXPECT_EQ(compiled.size(), 4U);  // two As, two Bs (paper §III-C)
}

TEST(Compile, CompoundOperandsExpandPairwise) {
  StringPool pool;
  // The paper's Fig 2 pattern: P := (A -> B) || (C -> D).
  const CompiledPattern compiled = compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      C := ['', c, '']; D := ['', d, ''];
      pattern := (A -> B) || (C -> D);
  )", pool);
  EXPECT_EQ(compiled.size(), 4U);
  // a->b, c->d, and the 4 pairwise concurrency constraints of eq. (3).
  EXPECT_EQ(compiled.constraints.size(), 6U);
  std::size_t concurrent = 0;
  for (const Constraint& c : compiled.constraints) {
    concurrent += c.op == ConstraintOp::kConcurrent ? 1 : 0;
  }
  EXPECT_EQ(concurrent, 4U);
}

TEST(Compile, TerminatingLeavesHaveNoSuccessor) {
  StringPool pool;
  const CompiledPattern chain = compile(R"(
      A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];
      pattern := A -> B -> C;
  )", pool);
  ASSERT_EQ(chain.terminating.size(), 1U);
  EXPECT_EQ(chain.terminating[0], 2U);  // only C can finish a match

  const CompiledPattern concurrent = compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A || B;
  )", pool);
  EXPECT_EQ(concurrent.terminating.size(), 2U);  // either side can be last

  const CompiledPattern partner = compile(R"(
      S := ['', s, '']; R := ['', r, ''];
      pattern := S <-> R;
  )", pool);
  ASSERT_EQ(partner.terminating.size(), 1U);
  EXPECT_EQ(partner.terminating[0], 1U);  // the receive arrives last
}

TEST(Compile, ChainSharesAdjacentOperands) {
  StringPool pool;
  const CompiledPattern compiled = compile(R"(
      A := ['', a, '']; B := ['', b, '']; C := ['', c, ''];
      pattern := A -> B || C;
  )", pool);
  EXPECT_EQ(compiled.size(), 3U);  // B shared between the two relations
  EXPECT_EQ(compiled.constraints.size(), 2U);
}

TEST(Compile, SemanticErrors) {
  StringPool pool;
  EXPECT_THROW(compile("pattern := A -> B;", pool), PatternError);  // unknown
  EXPECT_THROW(compile(R"(
      A := ['', a, ''];
      A $X;
      pattern := $X -> $X;
  )", pool), PatternError);  // self-relation via the shared leaf
  EXPECT_THROW(compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := (A && B) <-> A;
  )", pool), PatternError);  // partner needs single events
  EXPECT_THROW(compile(R"(
      A := ['', a, ''];
      A $X; A $Y;
      pattern := ($X -> $Y) && ($Y -> $X);
  )", pool), PatternError);  // no terminating leaf (cycle)
}

TEST(Compile, LimitedPrecedenceOperator) {
  StringPool pool;
  const CompiledPattern compiled = compile(R"(
      A := ['', a, '']; B := ['', b, ''];
      pattern := A -lim-> B;
  )", pool);
  ASSERT_EQ(compiled.constraints.size(), 1U);
  EXPECT_EQ(compiled.constraints[0].op, ConstraintOp::kBeforeLimited);
  // The limited-precedence source cannot terminate a match.
  ASSERT_EQ(compiled.terminating.size(), 1U);
  EXPECT_EQ(compiled.terminating[0], 1U);
}

TEST(Compile, AttributeVariablesGetStableIds) {
  StringPool pool;
  const CompiledPattern compiled = compile(R"(
      W1 := [$1, blocked_send, $2];
      W2 := [$2, blocked_send, $1];
      pattern := W1 || W2;
  )", pool);
  EXPECT_EQ(compiled.variable_count, 2U);
  EXPECT_EQ(compiled.leaves[0].process.variable,
            compiled.leaves[1].text.variable);
  EXPECT_EQ(compiled.leaves[0].text.variable,
            compiled.leaves[1].process.variable);
}


// --- Leaf symmetry (find_symmetry; DESIGN.md §4 "Symmetric patterns") ---

/// The terminating leaves answered by another's search.
std::size_t images(const CompiledPattern& compiled) {
  if (compiled.orbit_rep.empty()) {
    EXPECT_TRUE(compiled.orbit_map.empty());
    return 0;
  }
  std::size_t count = 0;
  for (const std::uint32_t leaf : compiled.terminating) {
    count += compiled.orbit_rep[leaf] != leaf ? 1U : 0U;
  }
  return count;
}

/// Checks that each recorded map is an automorphism onto its leaf: a
/// permutation that keeps attribute kinds and literals, renames variables
/// by one bijection, and maps the constraint set onto itself.
void expect_automorphisms(const CompiledPattern& compiled) {
  const std::size_t k = compiled.size();
  if (compiled.orbit_rep.empty()) {
    return;  // no symmetric anchors: nothing to check
  }
  ASSERT_EQ(compiled.orbit_rep.size(), k);
  ASSERT_EQ(compiled.orbit_map.size(), k);
  auto key = [](const Constraint& c) {
    const bool swap = c.op == ConstraintOp::kConcurrent && c.a > c.b;
    return std::tuple(swap ? c.b : c.a, swap ? c.a : c.b, c.op);
  };
  std::set<std::tuple<std::uint32_t, std::uint32_t, ConstraintOp>> all;
  for (const Constraint& c : compiled.constraints) {
    all.insert(key(c));
  }
  for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
    const std::vector<std::uint32_t>& map = compiled.orbit_map[leaf];
    const std::uint32_t rep = compiled.orbit_rep[leaf];
    if (rep == leaf) {
      EXPECT_TRUE(map.empty());
      continue;
    }
    ASSERT_EQ(map.size(), k);
    EXPECT_EQ(map[rep], leaf);
    std::vector<std::uint32_t> sorted = map;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> identity(k);
    std::iota(identity.begin(), identity.end(), 0U);
    EXPECT_EQ(sorted, identity) << "not a permutation";
    std::map<std::uint32_t, std::uint32_t> sigma;
    std::map<std::uint32_t, std::uint32_t> inverse;
    for (std::uint32_t x = 0; x < k; ++x) {
      const Leaf& from = compiled.leaves[x];
      const Leaf& to = compiled.leaves[map[x]];
      for (const auto& [a, b] : {std::pair{&from.process, &to.process},
                                 std::pair{&from.type, &to.type},
                                 std::pair{&from.text, &to.text}}) {
        ASSERT_EQ(a->kind, b->kind);
        if (a->kind == Attr::Kind::kLiteral) {
          EXPECT_EQ(a->literal, b->literal);
        } else if (a->kind == Attr::Kind::kVariable) {
          EXPECT_EQ(sigma.emplace(a->variable, b->variable).first->second,
                    b->variable);
          EXPECT_EQ(inverse.emplace(b->variable, a->variable).first->second,
                    a->variable);
        }
      }
    }
    for (const Constraint& c : compiled.constraints) {
      EXPECT_EQ(all.count(key(Constraint{map[c.a], map[c.b], c.op})), 1U);
    }
  }
}

TEST(Symmetry, SymmetricCaseStudiesAreOneOrbit) {
  StringPool pool;
  for (std::uint32_t n = 2; n <= 16; ++n) {
    SCOPED_TRACE("deadlock cycle " + std::to_string(n));
    const CompiledPattern cycle = compile(apps::deadlock_pattern(n), pool);
    expect_automorphisms(cycle);
    ASSERT_EQ(cycle.terminating.size(), n);
    EXPECT_EQ(images(cycle), n - 1);
    for (const std::uint32_t leaf : cycle.terminating) {
      EXPECT_EQ(cycle.orbit_rep[leaf], 0U);
    }
  }
  const CompiledPattern races = compile(apps::race_pattern(), pool);
  expect_automorphisms(races);
  ASSERT_EQ(races.terminating, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(races.orbit_rep[3], 2U);  // R2 is R1's image
  const CompiledPattern atomicity = compile(apps::atomicity_pattern(), pool);
  expect_automorphisms(atomicity);
  EXPECT_EQ(atomicity.orbit_rep[1], 0U);
  // bench/overload's pathological pattern: six '||' pairs of one class.
  const CompiledPattern overload = compile(R"(
      E1 := ['', A, '']; E2 := ['', A, ''];
      E3 := ['', A, '']; E4 := ['', A, ''];
      pattern := (E1 || E2) && (E1 || E3) && (E1 || E4) &&
                 (E2 || E3) && (E2 || E4) && (E3 || E4);
  )", pool);
  expect_automorphisms(overload);
  ASSERT_EQ(overload.size(), 12U);
  EXPECT_EQ(images(overload), 11U);
}

TEST(Symmetry, AsymmetricPatternsSearchEveryAnchor) {
  StringPool pool;
  for (const std::string& source :
       {apps::ordering_pattern(),
        std::string("P := ['', C, x]; Q := ['', C, x];\n"
                    "pattern := P -> Q;\n"),
        std::string("P := ['', $k, '']; Q := ['', $k, y];\n"
                    "pattern := P || Q;\n"),
        // Mapping P onto Q renames $a to $a (process) and to $b (text):
        // no consistent renaming exists.
        std::string("P := [$a, A, $a]; Q := [$a, A, $b];\n"
                    "pattern := P || Q;\n")}) {
    SCOPED_TRACE(source);
    const CompiledPattern compiled = compile(source, pool);
    expect_automorphisms(compiled);
    EXPECT_EQ(images(compiled), 0U);
  }
}

TEST(Symmetry, OrbitsFollowTheConstraintStructure) {
  StringPool pool;
  // Two orbits: {A1, A2} and {B1, B2}; the orbits do not mix, since A
  // and B are different literals.
  const CompiledPattern two = compile(R"(
      A1 := ['', A, '']; A2 := ['', A, ''];
      B1 := ['', B, '']; B2 := ['', B, ''];
      pattern := (A1 || A2) && (B1 || B2);
  )", pool);
  expect_automorphisms(two);
  EXPECT_EQ(two.orbit_rep[1], 0U);
  EXPECT_EQ(two.orbit_rep[3], 2U);
  EXPECT_EQ(two.orbit_rep[2], 2U);
  // A chain of '||' is a path, not a clique: its ends are one orbit, and
  // the middle leaf is its own.
  const CompiledPattern path = compile(R"(
      C := ['', A, ''];
      pattern := C || C || C;
  )", pool);
  expect_automorphisms(path);
  EXPECT_EQ(path.orbit_rep[2], 0U);
  EXPECT_EQ(path.orbit_rep[1], 1U);
  // Only terminating leaves are answered by images: the two S leaves
  // that precede $r are interchangeable, but neither anchors a search.
  const CompiledPattern fan = compile(R"(
      S := ['', A, '']; R := ['', B, ''];
      R $r;
      pattern := (S -> $r) && (S -> $r);
  )", pool);
  expect_automorphisms(fan);
  EXPECT_EQ(fan.terminating, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(images(fan), 0U);
}

}  // namespace
}  // namespace ocep::pattern
