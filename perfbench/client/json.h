// Minimal JSON reader for the referee's outputs: the `serve --json` exit
// line, the `--stats` / GET /metrics.json registry dump and GET /query
// answers. Objects, arrays, strings, numbers, true/false/null; enough to
// read those documents, not a general-purpose parser.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  bool has(const std::string& key) const { return fields.count(key) != 0; }
  const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (type != Type::kObject || it == fields.end()) {
      throw std::runtime_error("json: missing key '" + key + "'");
    }
    return it->second;
  }
  double num(const std::string& key) const { return at(key).number; }
  std::uint64_t u64(const std::string& key) const {
    return std::strtoull(at(key).text.c_str(), nullptr, 10);
  }

  static Json parse(std::string_view s) {
    std::size_t pos = 0;
    Json v = parse_value(s, pos);
    skip_ws(s, pos);
    if (pos != s.size()) throw std::runtime_error("json: trailing bytes");
    return v;
  }

 private:
  static void skip_ws(std::string_view s, std::size_t& pos) {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\r' ||
                              s[pos] == '\t')) {
      ++pos;
    }
  }
  static void expect(std::string_view s, std::size_t& pos, char c) {
    skip_ws(s, pos);
    if (pos >= s.size() || s[pos] != c) {
      throw std::runtime_error(std::string("json: expected '") + c + "' at " +
                               std::to_string(pos));
    }
    ++pos;
  }
  static std::string parse_string(std::string_view s, std::size_t& pos) {
    expect(s, pos, '"');
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\' && pos < s.size()) {
        const char e = s[pos++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': pos += 4; c = '?'; break;  // never emitted by the referee
          default: c = e; break;
        }
      }
      out += c;
    }
    expect(s, pos, '"');
    return out;
  }
  static Json parse_value(std::string_view s, std::size_t& pos) {
    skip_ws(s, pos);
    if (pos >= s.size()) throw std::runtime_error("json: unexpected end");
    Json v;
    const char c = s[pos];
    if (c == '{') {
      v.type = Type::kObject;
      ++pos;
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return v;
      }
      for (;;) {
        std::string key = parse_string(s, pos);
        expect(s, pos, ':');
        v.fields[std::move(key)] = parse_value(s, pos);
        skip_ws(s, pos);
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        expect(s, pos, '}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Type::kArray;
      ++pos;
      skip_ws(s, pos);
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return v;
      }
      for (;;) {
        v.items.push_back(parse_value(s, pos));
        skip_ws(s, pos);
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        expect(s, pos, ']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Type::kString;
      v.text = parse_string(s, pos);
      return v;
    }
    if (s.substr(pos, 4) == "true" || s.substr(pos, 5) == "false") {
      v.type = Type::kBool;
      v.boolean = s[pos] == 't';
      pos += v.boolean ? 4 : 5;
      return v;
    }
    if (s.substr(pos, 4) == "null") {
      pos += 4;
      return v;
    }
    const std::string rest(s.substr(pos, 64));
    char* end = nullptr;
    v.type = Type::kNumber;
    v.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) throw std::runtime_error("json: bad value at " + std::to_string(pos));
    const auto len = static_cast<std::size_t>(end - rest.c_str());
    v.text = rest.substr(0, len);  // exact digits: 64-bit labels exceed a double
    pos += len;
    return v;
  }
};

}  // namespace perfbench
