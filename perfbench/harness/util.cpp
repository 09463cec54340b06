#include "util.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double percentile_reference(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Smallest index i with (i + 1) / n >= q, found by walking the sorted list.
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (static_cast<double>(i + 1) >= q * n - 1e-9) return samples[i];
  }
  return samples.back();
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
};

void put_utf8(std::string* out, unsigned cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

bool read_string(Cursor& c, std::string* out) {
  if (!c.eat('"')) return false;
  out->clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c.i >= c.s.size()) return false;
    const char e = c.s[c.i++];
    switch (e) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (c.i + 4 > c.s.size()) return false;
        const std::string hex(c.s.substr(c.i, 4));
        c.i += 4;
        put_utf8(out, static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16)));
        break;
      }
      default: out->push_back(e); break;
    }
  }
  return false;
}

// Skips one value of any kind (used for nested arrays/objects).
bool skip_value(Cursor& c) {
  c.ws();
  if (c.i >= c.s.size()) return false;
  const char ch = c.s[c.i];
  if (ch == '"') {
    std::string ignored;
    return read_string(c, &ignored);
  }
  if (ch == '{' || ch == '[') {
    const char close = ch == '{' ? '}' : ']';
    ++c.i;
    if (c.eat(close)) return true;
    for (;;) {
      if (close == '}') {
        std::string key;
        if (!read_string(c, &key) || !c.eat(':')) return false;
      }
      if (!skip_value(c)) return false;
      if (c.eat(close)) return true;
      if (!c.eat(',')) return false;
    }
  }
  while (c.i < c.s.size() && c.s[c.i] != ',' && c.s[c.i] != '}' && c.s[c.i] != ']') ++c.i;
  return true;
}

}  // namespace

bool parse_json_object(std::string_view text, JsonObject* out) {
  Cursor c{text};
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  for (;;) {
    std::string key;
    if (!read_string(c, &key) || !c.eat(':')) return false;
    c.ws();
    if (c.i >= c.s.size()) return false;
    const char ch = c.s[c.i];
    if (ch == '"') {
      std::string value;
      if (!read_string(c, &value)) return false;
      out->strings[key] = std::move(value);
    } else if (ch == '{' || ch == '[') {
      if (!skip_value(c)) return false;
    } else {
      const std::size_t start = c.i;
      if (!skip_value(c)) return false;
      std::string token(c.s.substr(start, c.i - start));
      while (!token.empty() && token.back() == ' ') token.pop_back();
      if (token == "true" || token == "false") {
        out->numbers[key] = token == "true" ? 1 : 0;
      } else if (token != "null") {
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0') return false;
        out->numbers[key] = v;
      }
    }
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(ch); break;
    }
  }
  return out;
}

double prometheus_value(const std::string& body, const std::string& name) {
  double total = 0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string_view line(body.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, name.size()) != name) continue;
    const char after = line.size() > name.size() ? line[name.size()] : '\0';
    if (after != ' ' && after != '{') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return total;
}

bool parse_rational(const std::string& text, __int128* num, __int128* den) {
  if (text.empty()) return false;
  const std::size_t slash = text.find('/');
  const auto parse = [](const std::string& s, __int128* out) {
    if (s.empty()) return false;
    std::size_t i = 0;
    bool neg = false;
    if (s[0] == '-') {
      neg = true;
      i = 1;
    }
    if (i >= s.size()) return false;
    __int128 v = 0;
    for (; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      v = v * 10 + (s[i] - '0');
    }
    *out = neg ? -v : v;
    return true;
  };
  if (slash == std::string::npos) {
    *den = 1;
    return parse(text, num);
  }
  return parse(text.substr(0, slash), num) && parse(text.substr(slash + 1), den) &&
         *den > 0;
}

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
