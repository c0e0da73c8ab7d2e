#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>

#include "common/error.h"
#include "pattern/compiled.h"
#include "pattern/parser.h"

namespace ocep::pattern {
namespace {

class Compiler {
 public:
  Compiler(const AstProgram& program, StringPool& pool)
      : program_(program), pool_(pool) {}

  CompiledPattern run() {
    index_classes();
    index_event_variables();
    const std::vector<std::uint32_t> roots = expr(*program_.pattern);
    static_cast<void>(roots);
    dedupe_constraints();
    find_terminating();
    out_.variable_count =
        static_cast<std::uint32_t>(out_.variable_names.size());
    if (out_.leaves.empty()) {
      throw PatternError("pattern has no event occurrences");
    }
    find_symmetry(out_);
    return std::move(out_);
  }

 private:
  void index_classes() {
    for (const AstClassDef& def : program_.classes) {
      if (!classes_.emplace(def.name, &def).second) {
        throw PatternError("duplicate class definition '" + def.name + "'");
      }
    }
  }

  void index_event_variables() {
    for (const AstVarDecl& decl : program_.variables) {
      if (classes_.find(decl.class_name) == classes_.end()) {
        throw PatternError("event variable $" + decl.var_name +
                           " declares unknown class '" + decl.class_name +
                           "'");
      }
      if (!event_vars_.emplace(decl.var_name, decl.class_name).second) {
        throw PatternError("duplicate event variable $" + decl.var_name);
      }
    }
  }

  Attr compile_attr(const AstAttr& attr) {
    Attr out;
    switch (attr.kind) {
      case AstAttr::Kind::kWildcard:
        out.kind = Attr::Kind::kWildcard;
        break;
      case AstAttr::Kind::kLiteral:
        out.kind = Attr::Kind::kLiteral;
        out.literal = pool_.intern(attr.value);
        break;
      case AstAttr::Kind::kVariable:
        out.kind = Attr::Kind::kVariable;
        out.variable = variable_id(attr.value);
        break;
    }
    return out;
  }

  std::uint32_t variable_id(const std::string& name) {
    auto [it, inserted] = attr_vars_.emplace(
        name, static_cast<std::uint32_t>(out_.variable_names.size()));
    if (inserted) {
      out_.variable_names.push_back(name);
    }
    return it->second;
  }

  std::uint32_t make_leaf(const std::string& class_name) {
    auto it = classes_.find(class_name);
    if (it == classes_.end()) {
      throw PatternError("unknown event class '" + class_name + "'");
    }
    const AstClassDef& def = *it->second;
    Leaf leaf;
    leaf.class_name = class_name;
    leaf.process = compile_attr(def.process);
    leaf.type = compile_attr(def.type);
    leaf.text = compile_attr(def.text);
    out_.leaves.push_back(std::move(leaf));
    return static_cast<std::uint32_t>(out_.leaves.size() - 1);
  }

  /// Compiles a sub-expression; returns the set of leaves it denotes (the
  /// compound event).
  std::vector<std::uint32_t> expr(const AstExpr& node) {
    if (const auto* operand = std::get_if<AstOperand>(&node.node)) {
      if (operand->is_variable) {
        auto decl = event_vars_.find(operand->name);
        if (decl == event_vars_.end()) {
          throw PatternError("event variable $" + operand->name +
                             " used without declaration");
        }
        auto bound = var_leaves_.find(operand->name);
        if (bound == var_leaves_.end()) {
          bound = var_leaves_
                      .emplace(operand->name, make_leaf(decl->second))
                      .first;
        }
        return {bound->second};
      }
      return {make_leaf(operand->name)};
    }
    if (const auto* chain = std::get_if<AstChain>(&node.node)) {
      std::vector<std::uint32_t> all;
      std::vector<std::uint32_t> prev = expr(*chain->operands.front());
      all = prev;
      for (std::size_t i = 0; i < chain->ops.size(); ++i) {
        std::vector<std::uint32_t> next = expr(*chain->operands[i + 1]);
        relate(prev, next, chain->ops[i]);
        all.insert(all.end(), next.begin(), next.end());
        prev = std::move(next);
      }
      return all;
    }
    const auto& conj = std::get<AstConj>(node.node);
    std::vector<std::uint32_t> all;
    for (const AstExprPtr& term : conj.terms) {
      const std::vector<std::uint32_t> leaves = expr(*term);
      all.insert(all.end(), leaves.begin(), leaves.end());
    }
    return all;
  }

  void relate(const std::vector<std::uint32_t>& a,
              const std::vector<std::uint32_t>& b, AstOp op) {
    if (op == AstOp::kPartner && (a.size() != 1 || b.size() != 1)) {
      throw PatternError("'<->' relates single events, not compound ones");
    }
    for (const std::uint32_t la : a) {
      for (const std::uint32_t lb : b) {
        if (la == lb) {
          throw PatternError("constraint relates a leaf to itself (via $" +
                             out_.leaves[la].class_name + ")");
        }
        Constraint c;
        c.a = la;
        c.b = lb;
        switch (op) {
          case AstOp::kBefore: c.op = ConstraintOp::kBefore; break;
          case AstOp::kBeforeLimited:
            c.op = ConstraintOp::kBeforeLimited;
            break;
          case AstOp::kConcurrent: c.op = ConstraintOp::kConcurrent; break;
          case AstOp::kPartner: c.op = ConstraintOp::kPartner; break;
        }
        out_.constraints.push_back(c);
      }
    }
  }

  void dedupe_constraints() {
    std::set<std::tuple<std::uint32_t, std::uint32_t, ConstraintOp>> seen;
    std::vector<Constraint> unique;
    for (const Constraint& c : out_.constraints) {
      // Concurrency is symmetric: normalize the pair.
      Constraint n = c;
      if (n.op == ConstraintOp::kConcurrent && n.a > n.b) {
        std::swap(n.a, n.b);
      }
      if (seen.emplace(n.a, n.b, n.op).second) {
        unique.push_back(n);
      }
    }
    out_.constraints = std::move(unique);
  }

  void find_terminating() {
    std::vector<bool> has_successor(out_.leaves.size(), false);
    for (const Constraint& c : out_.constraints) {
      if (c.op == ConstraintOp::kBefore ||
          c.op == ConstraintOp::kBeforeLimited ||
          c.op == ConstraintOp::kPartner) {
        has_successor[c.a] = true;  // a -> b and send -> receive
      }
    }
    for (std::uint32_t i = 0; i < out_.leaves.size(); ++i) {
      if (!has_successor[i]) {
        out_.terminating.push_back(i);
      }
    }
    if (out_.terminating.empty()) {
      throw PatternError(
          "pattern has a happens-before cycle: no leaf can terminate a "
          "match");
    }
  }

  const AstProgram& program_;
  StringPool& pool_;
  CompiledPattern out_;
  std::map<std::string, const AstClassDef*> classes_;
  std::map<std::string, std::string> event_vars_;   // $var -> class
  std::map<std::string, std::uint32_t> var_leaves_;  // $var -> leaf id
  std::map<std::string, std::uint32_t> attr_vars_;   // $attr -> variable id
};

}  // namespace

CompiledPattern compile(std::string_view source, StringPool& pool) {
  const AstProgram program = parse(source);
  return Compiler(program, pool).run();
}

}  // namespace ocep::pattern
