#include "ta/lexer.hpp"

#include <cctype>

#include "dbm/bound.hpp"

namespace ta {

const char* tokName(Tok kind) {
  switch (kind) {
    case Tok::kEnd: return "end of file";
    case Tok::kIdent: return "identifier";
    case Tok::kInt: return "integer";
    case Tok::kString: return "string";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kLBracket: return "'['";
    case Tok::kRBracket: return "']'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kSemi: return "';'";
    case Tok::kComma: return "','";
    case Tok::kDot: return "'.'";
    case Tok::kArrow: return "'->'";
    case Tok::kAssign: return "'='";
    case Tok::kLt: return "'<'";
    case Tok::kLe: return "'<='";
    case Tok::kGt: return "'>'";
    case Tok::kGe: return "'>='";
    case Tok::kEq: return "'=='";
    case Tok::kNe: return "'!='";
    case Tok::kPlus: return "'+'";
    case Tok::kMinus: return "'-'";
    case Tok::kStar: return "'*'";
    case Tok::kSlash: return "'/'";
    case Tok::kPercent: return "'%'";
    case Tok::kAnd: return "'&&'";
    case Tok::kOr: return "'||'";
    case Tok::kNot: return "'!'";
    case Tok::kBang: return "'!'";
    case Tok::kQuest: return "'?'";
    case Tok::kColon: return "':'";
  }
  return "token";
}

std::string describeToken(const Token& t) {
  switch (t.kind) {
    case Tok::kEnd: return "end of file";
    case Tok::kIdent: return "'" + t.text + "'";
    case Tok::kInt: return "'" + std::to_string(t.value) + "'";
    case Tok::kString: return "string \"" + t.text + "\"";
    default: return tokName(t.kind);
  }
}

Lexer::Lexer(const std::string& text, std::vector<Diagnostic>* diags)
    : text_(text), diags_(diags) {
  advance();
}

Span Lexer::here(int len) const {
  return {line_, static_cast<int>(pos_ - lineStart_) + 1, len};
}

void Lexer::report(DiagCode code, Span span, std::string message) {
  if (diags_ == nullptr || emitted_ >= kMaxLexDiags) return;
  ++emitted_;
  diags_->push_back(
      {Severity::kError, code, span, std::move(message), {}});
}

void Lexer::skipSpaceAndComments() {
  for (;;) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      if (text_[pos_] == '\n') {
        ++line_;
        lineStart_ = pos_ + 1;
      }
      ++pos_;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
        text_[pos_ + 1] == '/') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      continue;
    }
    break;
  }
}

void Lexer::advance() {
  for (;;) {
    skipSpaceAndComments();
    cur_ = Token{};
    cur_.span = here(0);
    if (pos_ >= text_.size()) return;  // kEnd
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      cur_.kind = Tok::kIdent;
      cur_.text = text_.substr(start, pos_ - start);
      cur_.span.len = static_cast<int>(pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = pos_;
      // Accumulate with an explicit overflow clamp: a std::stoll-based
      // scan would throw std::out_of_range out of the parser on inputs
      // like 99999999999999999999.
      int64_t v = 0;
      bool overflow = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        if (v > dbm::kMaxValue) {
          overflow = true;
        } else {
          v = v * 10 + (text_[pos_] - '0');
        }
        ++pos_;
      }
      cur_.kind = Tok::kInt;
      cur_.span.len = static_cast<int>(pos_ - start);
      if (overflow || v > dbm::kMaxValue) {
        report(DiagCode::kBadConstant, {cur_.span.line, cur_.span.col,
                                        cur_.span.len},
               "integer literal '" + text_.substr(start, pos_ - start) +
                   "' exceeds the representable bound range (max " +
                   std::to_string(dbm::kMaxValue) + ")");
        v = dbm::kMaxValue;
      }
      cur_.value = v;
      return;
    }
    if (c == '"') {
      const Span open = here(1);
      const size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\n') {
        ++pos_;
      }
      cur_.kind = Tok::kString;
      cur_.text = text_.substr(start, pos_ - start);
      cur_.span.len = static_cast<int>(pos_ - start) + 2;
      if (pos_ < text_.size() && text_[pos_] == '"') {
        ++pos_;  // closing quote
      } else {
        report(DiagCode::kUnterminatedString, open,
               "unterminated string literal");
      }
      return;
    }
    const auto two = [&](char a, char b, Tok k) {
      if (c == a && pos_ + 1 < text_.size() && text_[pos_ + 1] == b) {
        cur_.kind = k;
        cur_.span.len = 2;
        pos_ += 2;
        return true;
      }
      return false;
    };
    if (two('-', '>', Tok::kArrow) || two('<', '=', Tok::kLe) ||
        two('>', '=', Tok::kGe) || two('=', '=', Tok::kEq) ||
        two('!', '=', Tok::kNe) || two('&', '&', Tok::kAnd) ||
        two('|', '|', Tok::kOr)) {
      return;
    }
    cur_.span.len = 1;
    ++pos_;
    switch (c) {
      case '{': cur_.kind = Tok::kLBrace; return;
      case '}': cur_.kind = Tok::kRBrace; return;
      case '[': cur_.kind = Tok::kLBracket; return;
      case ']': cur_.kind = Tok::kRBracket; return;
      case '(': cur_.kind = Tok::kLParen; return;
      case ')': cur_.kind = Tok::kRParen; return;
      case ';': cur_.kind = Tok::kSemi; return;
      case ',': cur_.kind = Tok::kComma; return;
      case '.': cur_.kind = Tok::kDot; return;
      case '=': cur_.kind = Tok::kAssign; return;
      case '<': cur_.kind = Tok::kLt; return;
      case '>': cur_.kind = Tok::kGt; return;
      case '+': cur_.kind = Tok::kPlus; return;
      case '-': cur_.kind = Tok::kMinus; return;
      case '*': cur_.kind = Tok::kStar; return;
      case '/': cur_.kind = Tok::kSlash; return;
      case '%': cur_.kind = Tok::kPercent; return;
      case '!': cur_.kind = Tok::kBang; return;
      case '?': cur_.kind = Tok::kQuest; return;
      case ':': cur_.kind = Tok::kColon; return;
      default: break;
    }
    // Invalid character(s): collapse the whole run into one diagnostic
    // and keep lexing — the parser never sees them, so one stray byte
    // cannot cascade into a wall of unrelated syntax errors.
    const Span bad = {cur_.span.line, cur_.span.col, 1};
    int run = 1;
    const auto valid = [](char ch) {
      return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
             std::isspace(static_cast<unsigned char>(ch)) ||
             std::string_view("{}[]();,.=<>+-*/%!?:\"&|").find(ch) !=
                 std::string_view::npos;
    };
    while (pos_ < text_.size() && !valid(text_[pos_])) {
      ++pos_;
      ++run;
    }
    report(DiagCode::kInvalidCharacter, {bad.line, bad.col, run},
           run == 1 ? std::string("invalid character '") + c + "'"
                    : "invalid characters starting with '" + std::string(1, c) +
                          "'");
  }
}

}  // namespace ta
