#include "pattern/lexer.h"

#include <cctype>

#include "common/error.h"

namespace ocep::pattern {

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kVariable: return "variable";
    case TokenKind::kString: return "string";
    case TokenKind::kAssign: return "':='";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kLimArrow: return "'-lim->'";
    case TokenKind::kConcur: return "'||'";
    case TokenKind::kPartner: return "'<->'";
    case TokenKind::kAnd: return "'&&'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kEnd: return "end of input";
  }
  return "?";
}

namespace {

bool is_ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

class Scanner {
 public:
  explicit Scanner(std::string_view source) : source_(source) {}

  [[nodiscard]] bool done() const noexcept { return pos_ >= source_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = source_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int column() const noexcept { return column_; }

 private:
  std::string_view source_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> tokens;
  Scanner cursor(source);

  auto push = [&tokens](TokenKind kind, std::string text, int line,
                        int column) {
    tokens.push_back(Token{kind, std::move(text), line, column});
  };

  while (!cursor.done()) {
    const int line = cursor.line();
    const int column = cursor.column();
    const char c = cursor.advance();
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (!cursor.done() && cursor.peek() != '\n') {
        cursor.advance();
      }
      continue;
    }
    switch (c) {
      case '[': push(TokenKind::kLBracket, "[", line, column); continue;
      case ']': push(TokenKind::kRBracket, "]", line, column); continue;
      case '(': push(TokenKind::kLParen, "(", line, column); continue;
      case ')': push(TokenKind::kRParen, ")", line, column); continue;
      case ',': push(TokenKind::kComma, ",", line, column); continue;
      case ';': push(TokenKind::kSemicolon, ";", line, column); continue;
      default: break;
    }
    if (c == ':' && cursor.peek() == '=') {
      cursor.advance();
      push(TokenKind::kAssign, ":=", line, column);
      continue;
    }
    if (c == '-' && cursor.peek() == '>') {
      cursor.advance();
      push(TokenKind::kArrow, "->", line, column);
      continue;
    }
    if (c == '-' && cursor.peek() == 'l' && cursor.peek(1) == 'i' &&
        cursor.peek(2) == 'm' && cursor.peek(3) == '-' &&
        cursor.peek(4) == '>') {
      for (int skip = 0; skip < 5; ++skip) {
        cursor.advance();
      }
      push(TokenKind::kLimArrow, "-lim->", line, column);
      continue;
    }
    if (c == '|' && cursor.peek() == '|') {
      cursor.advance();
      push(TokenKind::kConcur, "||", line, column);
      continue;
    }
    if (c == '<' && cursor.peek() == '-' && cursor.peek(1) == '>') {
      cursor.advance();
      cursor.advance();
      push(TokenKind::kPartner, "<->", line, column);
      continue;
    }
    if (c == '&' && cursor.peek() == '&') {
      cursor.advance();
      push(TokenKind::kAnd, "&&", line, column);
      continue;
    }
    if (c == '\'') {
      std::string text;
      while (!cursor.done() && cursor.peek() != '\'') {
        if (cursor.peek() == '\n') {
          throw ParseError("unterminated string literal", line, column);
        }
        text.push_back(cursor.advance());
      }
      if (cursor.done()) {
        throw ParseError("unterminated string literal", line, column);
      }
      cursor.advance();  // closing quote
      push(TokenKind::kString, std::move(text), line, column);
      continue;
    }
    if (c == '$') {
      std::string name;
      while (!cursor.done() && is_ident_char(cursor.peek())) {
        name.push_back(cursor.advance());
      }
      if (name.empty()) {
        throw ParseError("'$' must be followed by a variable name", line,
                         column);
      }
      push(TokenKind::kVariable, std::move(name), line, column);
      continue;
    }
    if (is_ident_start(c)) {
      std::string name(1, c);
      while (!cursor.done() && is_ident_char(cursor.peek())) {
        name.push_back(cursor.advance());
      }
      push(TokenKind::kIdent, std::move(name), line, column);
      continue;
    }
    throw ParseError(std::string("unexpected character '") + c + "'", line,
                     column);
  }
  tokens.push_back(Token{TokenKind::kEnd, "", cursor.line(), cursor.column()});
  return tokens;
}

}  // namespace ocep::pattern
