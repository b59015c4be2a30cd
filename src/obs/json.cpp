#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace upaq::obs::json {

namespace {

/// Deepest array/object nesting parse() accepts. The repo's documents nest
/// fewer than 10 levels; the cap keeps hostile input (bench_compare reads
/// files named on its command line) from overflowing the recursion's stack.
constexpr int kMaxDepth = 256;

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& msg) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " at offset %zu", pos);
    err = msg + buf;
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape");
            }
            // Repo emitters only produce \u00xx control escapes; encode the
            // general case as UTF-8 anyway.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  /// `depth` counts the arrays/objects enclosing this value.
  bool parse_value(Value& out, int depth = 0) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if ((c == '{' || c == '[') && depth == kMaxDepth)
      return fail("nesting deeper than 256 levels");
    if (c == '{') {
      ++pos;
      out.kind = Value::Kind::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        out.members.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out.kind = Value::Kind::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Value v;
        if (!parse_value(v, depth + 1)) return false;
        out.items.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = Value::Kind::kString;
      return parse_string(out.str);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out.kind = Value::Kind::kBool;
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out.kind = Value::Kind::kBool;
      out.boolean = false;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out.kind = Value::Kind::kNull;
      pos += 4;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = text.c_str() + pos;
      char* end = nullptr;
      out.number = std::strtod(start, &end);
      if (end == start) return fail("bad number");
      out.kind = Value::Kind::kNumber;
      pos += static_cast<std::size_t>(end - start);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value* Value::at_path(const std::string& path) const {
  const Value* cur = this;
  std::size_t start = 0;
  while (start <= path.size() && cur != nullptr) {
    // Segment boundary: the next '.' outside a [key=value] search, whose
    // value may itself contain dots (event names like "model.lowered").
    auto dot = std::string::npos;
    for (std::size_t i = start, depth = 0; i < path.size(); ++i) {
      if (path[i] == '[') ++depth;
      else if (path[i] == ']' && depth > 0) --depth;
      else if (path[i] == '.' && depth == 0) { dot = i; break; }
    }
    const std::string seg = path.substr(
        start, dot == std::string::npos ? path.npos : dot - start);
    if (seg.empty()) return nullptr;
    if (seg.front() == '[' && seg.back() == ']') {
      // "[key=value]": find the array element whose string member matches.
      const auto eq = seg.find('=');
      if (eq == std::string::npos || cur->kind != Kind::kArray) return nullptr;
      const std::string key = seg.substr(1, eq - 1);
      const std::string want = seg.substr(eq + 1, seg.size() - eq - 2);
      const Value* hit = nullptr;
      for (const Value& item : cur->items) {
        const Value* m = item.find(key);
        if (m != nullptr && m->kind == Kind::kString && m->str == want) {
          hit = &item;
          break;
        }
      }
      cur = hit;
    } else if (std::isdigit(static_cast<unsigned char>(seg.front()))) {
      if (cur->kind != Kind::kArray) return nullptr;
      const std::size_t idx = static_cast<std::size_t>(std::atoll(seg.c_str()));
      cur = idx < cur->items.size() ? &cur->items[idx] : nullptr;
    } else {
      cur = cur->find(seg);
    }
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return cur;
}

bool parse(const std::string& text, Value& out, std::string* err) {
  Parser p{text, 0, {}};
  out = Value{};
  if (!p.parse_value(out)) {
    if (err != nullptr) *err = p.err;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err != nullptr) {
      p.fail("trailing content");
      *err = p.err;
    }
    return false;
  }
  return true;
}

void escape(std::string& out, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

}  // namespace upaq::obs::json
