#include "support/json.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/check.h"

namespace cobra::support {

Json& Json::Set(std::string_view key, Json value) {
  COBRA_CHECK_MSG(kind_ == Kind::kObject, "Json::Set on a non-object");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return object_.back().second;
}

const Json* Json::Find(std::string_view key) const {
  COBRA_CHECK_MSG(kind_ == Kind::kObject, "Json::Find on a non-object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::At(std::string_view key) const {
  const Json* v = Find(key);
  COBRA_CHECK_MSG(v != nullptr, "Json::At: missing key");
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  COBRA_CHECK_MSG(kind_ == Kind::kObject, "Json::items on a non-object");
  return object_;
}

Json& Json::Append(Json value) {
  COBRA_CHECK_MSG(kind_ == Kind::kArray, "Json::Append on a non-array");
  array_.push_back(std::move(value));
  return array_.back();
}

const std::vector<Json>& Json::elements() const {
  COBRA_CHECK_MSG(kind_ == Kind::kArray, "Json::elements on a non-array");
  return array_;
}

std::size_t Json::size() const {
  COBRA_CHECK_MSG(kind_ == Kind::kArray, "Json::size on a non-array");
  return array_.size();
}

bool Json::AsBool() const {
  COBRA_CHECK_MSG(kind_ == Kind::kBool, "Json::AsBool on a non-bool");
  return bool_;
}

double Json::AsDouble() const {
  COBRA_CHECK_MSG(kind_ == Kind::kNumber, "Json::AsDouble on a non-number");
  return integral_ ? static_cast<double>(int_) : dbl_;
}

std::int64_t Json::AsInt() const {
  COBRA_CHECK_MSG(kind_ == Kind::kNumber && integral_,
                  "Json::AsInt on a non-integer");
  return int_;
}

const std::string& Json::AsString() const {
  COBRA_CHECK_MSG(kind_ == Kind::kString, "Json::AsString on a non-string");
  return str_;
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, bool integral, std::int64_t i, double d) {
  if (integral) {
    out += std::to_string(i);
    return;
  }
  COBRA_CHECK_MSG(std::isfinite(d), "JSON numbers must be finite");
  char buf[40];
  // Shortest round-trippable form: try increasing precision.
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out += buf;
  // Keep the number recognizably floating-point (stable schema round-trip).
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
      std::string::npos) {
    out += ".0";
  }
}

void Indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

}  // namespace

void Json::DumpTo(std::string& out, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      AppendNumber(out, integral_, int_, dbl_);
      return;
    case Kind::kString:
      AppendEscaped(out, str_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        Indent(out, depth + 1);
        array_[i].DumpTo(out, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += '\n';
      }
      Indent(out, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        Indent(out, depth + 1);
        AppendEscaped(out, object_[i].first);
        out += ": ";
        object_[i].second.DumpTo(out, depth + 1);
        if (i + 1 < object_.size()) out += ',';
        out += '\n';
      }
      Indent(out, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0);
  out += '\n';
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> Run() {
    SkipWs();
    Json value;
    if (!ParseValue(&value)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing garbage after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  void Fail(const char* what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(Json* out) {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') return ParseString(out);
    if (c == 't') {
      if (!Literal("true")) { Fail("bad literal"); return false; }
      *out = Json(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) { Fail("bad literal"); return false; }
      *out = Json(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null")) { Fail("bad literal"); return false; }
      *out = Json();
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseString(Json* out) {
    std::string s;
    if (!ParseRawString(&s)) return false;
    *out = Json(std::move(s));
    return true;
  }

  bool ParseRawString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail("expected string");
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) { Fail("bad \\u escape"); return false; }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else { Fail("bad \\u escape"); return false; }
            }
            pos_ += 4;
            // Our documents are ASCII; encode BMP code points as UTF-8.
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            Fail("bad escape");
            return false;
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    Fail("unterminated string");
    return false;
  }

  bool ParseNumber(Json* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      Fail("expected value");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        Fail("bad integer");
        return false;
      }
      *out = Json(static_cast<std::int64_t>(v));
    } else {
      char* end = nullptr;
      const double v = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || !std::isfinite(v)) {
        Fail("bad number");
        return false;
      }
      *out = Json(v);
    }
    return true;
  }

  bool ParseArray(Json* out) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      Json element;
      if (!ParseValue(&element)) return false;
      out->Append(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) {
        Fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      Fail("expected ',' or ']'");
      return false;
    }
  }

  bool ParseObject(Json* out) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseRawString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        Fail("expected ':'");
        return false;
      }
      ++pos_;
      SkipWs();
      Json value;
      if (!ParseValue(&value)) return false;
      out->Set(key, std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        Fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      Fail("expected ',' or '}'");
      return false;
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::Parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).Run();
}

void Json::SignatureTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += "bool"; return;
    case Kind::kNumber: out += "num"; return;
    case Kind::kString: out += "str"; return;
    case Kind::kArray: {
      std::vector<std::string> sigs;
      for (const Json& e : array_) {
        std::string s;
        e.SignatureTo(s);
        if (std::find(sigs.begin(), sigs.end(), s) == sigs.end()) {
          sigs.push_back(std::move(s));
        }
      }
      std::sort(sigs.begin(), sigs.end());
      out += '[';
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        if (i > 0) out += '|';
        out += sigs[i];
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      std::vector<std::pair<std::string, const Json*>> sorted;
      sorted.reserve(object_.size());
      for (const auto& [k, v] : object_) sorted.emplace_back(k, &v);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      out += '{';
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) out += ',';
        out += sorted[i].first;
        out += ':';
        sorted[i].second->SignatureTo(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::SchemaSignature() const {
  std::string out;
  SignatureTo(out);
  return out;
}

}  // namespace cobra::support
