#include "util/ini.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace sharegrid {
namespace {

[[noreturn]] void fail(const std::string& message, std::size_t line) {
  throw ContractViolation("ini: " + message + " at line " +
                          std::to_string(line));
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Strips a trailing `# ...` or `; ...` comment (not inside the value of a
/// quoted string — this grammar has none, so a bare scan suffices).
std::string strip_comment(const std::string& s) {
  const std::size_t pos = s.find_first_of("#;");
  return pos == std::string::npos ? s : s.substr(0, pos);
}

double parse_double(const std::string& text, const std::string& key) {
  const std::string t = trim(text);
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(t, &consumed);
  } catch (const std::exception&) {
    throw ContractViolation("ini: key '" + key + "' is not a number: '" + t +
                            "'");
  }
  if (consumed != t.size())
    throw ContractViolation("ini: key '" + key +
                            "' has trailing junk after number: '" + t + "'");
  return value;
}

}  // namespace

std::optional<std::string> IniSection::get_string(
    const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) return std::nullopt;
  it->second.read = true;
  return it->second.text;
}

std::optional<std::string> IniSection::unread_key() const {
  for (const auto& [key, value] : values)
    if (!value.read) return key;
  return std::nullopt;
}

std::optional<double> IniSection::get_double(const std::string& key) const {
  const auto raw = get_string(key);
  if (!raw) return std::nullopt;
  return parse_double(*raw, key);
}

std::string IniSection::require_string(const std::string& key) const {
  const auto v = get_string(key);
  if (!v)
    throw ContractViolation("ini: section [" + name + "] (line " +
                            std::to_string(line) + ") is missing key '" +
                            key + "'");
  return *v;
}

double IniSection::require_double(const std::string& key) const {
  require_string(key);  // presence check with the better message
  return *get_double(key);
}

std::vector<const IniSection*> IniDocument::all(const std::string& name) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections)
    if (s.name == name) out.push_back(&s);
  return out;
}

IniDocument parse_ini(const std::string& text) {
  IniDocument doc;
  doc.global.name = "";
  IniSection* current = &doc.global;

  std::istringstream stream(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail("unterminated section header", line_no);
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) fail("empty section name", line_no);
      doc.sections.push_back({name, line_no, {}});
      current = &doc.sections.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail("expected 'key = value'", line_no);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail("empty key", line_no);
    if (current->values.count(key) > 0)
      fail("duplicate key '" + key + "'", line_no);
    current->values[key] = {value};
  }
  return doc;
}

IniDocument parse_ini_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ContractViolation("ini: cannot read file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_ini(buffer.str());
}

}  // namespace sharegrid
