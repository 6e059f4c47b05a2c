// Minimal INI-style configuration reader for scenario files.
//
// Grammar (deliberately small, fully covered by tests):
//   - `# comment` and `; comment` lines (or trailing after values)
//   - `[section]` headers; repeated section names are allowed and create
//     separate section instances, in file order (used for [client] blocks)
//   - `key = value` pairs; whitespace around keys/values is trimmed
//   - values can be read as string or double
//
// Parse errors carry line numbers so scenario-file typos are diagnosable.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sharegrid {

/// One `key = value` entry. The typed getters set `read` when they return
/// the value, so a loader can find the keys it never asked for.
struct IniValue {
  std::string text;
  mutable bool read = false;
};

/// One `[section]` instance with its key/value pairs.
struct IniSection {
  std::string name;
  std::size_t line = 0;  ///< line number of the header (1-based)
  std::map<std::string, IniValue> values;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  /// The first key (in key order) that no getter has returned yet.
  std::optional<std::string> unread_key() const;

  /// Typed getters: nullopt when the key is absent; throws
  /// ContractViolation when present but malformed.
  std::optional<std::string> get_string(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;

  /// Required-field variants: throw with a helpful message when absent.
  std::string require_string(const std::string& key) const;
  double require_double(const std::string& key) const;
};

/// A parsed INI document: sections in file order, plus any key/value pairs
/// that appeared before the first section header (the "global" section).
struct IniDocument {
  IniSection global;
  std::vector<IniSection> sections;

  /// All sections with the given name, in file order.
  std::vector<const IniSection*> all(const std::string& name) const;
};

/// Parses INI text. Throws ContractViolation (with a line number) on
/// malformed lines.
IniDocument parse_ini(const std::string& text);

/// Reads and parses an INI file; throws ContractViolation when unreadable.
IniDocument parse_ini_file(const std::string& path);

}  // namespace sharegrid
