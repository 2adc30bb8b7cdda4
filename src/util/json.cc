#include "util/json.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace tg::json {

namespace {

/// Reads exactly four hex digits into *out; false on any non-hex character.
bool ReadHex4(const char* p, std::uint32_t* out) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = p[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

void AppendUtf8(std::uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Decodes one \uXXXX escape whose four hex digits start at *p (just past
/// the 'u'), appends the code point UTF-8-encoded to `out`, and advances *p
/// past the consumed digits. A UTF-16 high surrogate followed by a `\uXXXX`
/// low surrogate consumes both and yields the combined code point; unpaired
/// surrogates yield U+FFFD. False when fewer than four hex digits follow.
bool DecodeUnicodeEscape(const char** p, const char* end, std::string* out) {
  const char* cur = *p;
  std::uint32_t cp = 0;
  if (end - cur < 4 || !ReadHex4(cur, &cp)) return false;
  cur += 4;
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    // High surrogate: combine with a following \uDC00..\uDFFF low surrogate;
    // when it is absent or out of range, substitute U+FFFD and leave the
    // following escape (if any) to be decoded on its own.
    std::uint32_t lo = 0;
    if (end - cur >= 6 && cur[0] == '\\' && cur[1] == 'u' &&
        ReadHex4(cur + 2, &lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      cur += 6;
    } else {
      cp = 0xFFFD;
    }
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    cp = 0xFFFD;  // lone low surrogate
  }
  AppendUtf8(cp, out);
  *p = cur;
  return true;
}

struct Parser {
  const char* p;
  const char* end;
  int depth = 0;  // containers currently open
  bool too_deep = false;

  void SkipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }

  bool Consume(char c) {
    SkipWs();
    if (p >= end || *p != c) return false;
    ++p;
    return true;
  }

  bool Literal(const char* word) {
    const char* q = word;
    const char* save = p;
    while (*q != '\0') {
      if (p >= end || *p != *q) {
        p = save;
        return false;
      }
      ++p;
      ++q;
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p >= end) return false;
      char esc = *p++;
      switch (esc) {
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u':
          if (!DecodeUnicodeEscape(&p, end, out)) return false;
          break;
        default:
          out->push_back(esc);  // covers \" \\ \/
      }
    }
    if (p >= end) return false;
    ++p;  // closing quote
    return true;
  }

  bool ParseObject(Value* out) {
    ++p;
    out->type = Value::Type::kObject;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!ParseString(&key) || !Consume(':')) return false;
      if (!ParseValue(&out->object[key])) return false;
    } while (Consume(','));
    return Consume('}');
  }

  bool ParseArray(Value* out) {
    ++p;
    out->type = Value::Type::kArray;
    if (Consume(']')) return true;
    do {
      out->array.emplace_back();
      if (!ParseValue(&out->array.back())) return false;
    } while (Consume(','));
    return Consume(']');
  }

  bool ParseValue(Value* out) {
    SkipWs();
    if (p >= end) return false;
    switch (*p) {
      case '{':
      case '[': {
        if (depth == kMaxNestingDepth) {
          too_deep = true;
          return false;
        }
        ++depth;
        const bool ok = *p == '{' ? ParseObject(out) : ParseArray(out);
        --depth;
        return ok;
      }
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->str);
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = Value::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = Value::Type::kNull;
        return Literal("null");
      default: {
        const char* start = p;
        if (p < end && (*p == '-' || *p == '+')) ++p;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                           *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                           *p == '-')) {
          ++p;
        }
        if (p == start) return false;
        const std::string text(start, p);
        out->type = Value::Type::kNumber;
        out->number = std::strtod(text.c_str(), nullptr);
        if (text.find_first_not_of("0123456789") == std::string::npos) {
          errno = 0;
          out->u64 = std::strtoull(text.c_str(), nullptr, 10);
          out->is_u64 = errno != ERANGE;
        }
        return true;
      }
    }
  }
};

}  // namespace

std::uint64_t Value::U64Or(std::uint64_t fallback) const {
  if (!is_number()) return fallback;
  if (is_u64) return u64;
  if (!(number > 0.0)) return 0;  // negatives and NaN
  if (number >= 18446744073709551616.0) return UINT64_MAX;
  return static_cast<std::uint64_t>(number);
}

Status Parse(const std::string& text, Value* out) {
  *out = Value();
  Parser parser{text.data(), text.data() + text.size()};
  if (!parser.ParseValue(out)) {
    if (parser.too_deep) {
      return Status::Corruption("JSON nesting deeper than " +
                                std::to_string(kMaxNestingDepth) + " levels");
    }
    return Status::Corruption("malformed JSON");
  }
  parser.SkipWs();
  if (parser.p != parser.end) {
    return Status::Corruption("trailing garbage after JSON document");
  }
  return Status::Ok();
}

}  // namespace tg::json
