#pragma once

// Declarative scenario configuration: a tiny INI-style format (no external
// dependencies) that scenario_runner and tests load scenarios from.
//
//   # comment (';' works too)
//   [scenario]
//   seed = 1
//   duration = 2s          # durations take ns/us/ms/s suffixes
//
//   [workload]             # sections may repeat: one per workload / fault
//   protocol = rmp
//   rate = 200/s
//
//   [fault]
//   at = 500ms
//   kind = link_drop
//   target = node3.link
//
// Keys and section names are case-sensitive; values keep inner whitespace
// but are trimmed at the ends. Parse errors throw std::runtime_error with a
// line number.

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace nectar::scenario {

/// One enum value's spelling in a config file. An enum's array of these is
/// its only name list: the key row that parses it, printing and the error
/// text all read it.
template <class E>
struct Named {
  E value;
  const char* name;
};

template <class E, std::size_t N>
const char* name_of(const Named<E> (&table)[N], E value) {
  for (const Named<E>& n : table) {
    if (n.value == value) return n.name;
  }
  return "?";
}

/// One `[name]` block: an ordered bag of key=value pairs.
struct Section {
  std::string name;
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) != 0; }
  /// Typed getters: `fallback` when the key is absent; malformed values throw.
  std::string get(const std::string& key, const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A finite number (nan and inf throw).
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Duration with unit suffix: "250ns", "10us", "5ms", "2s" (bare numbers
  /// are nanoseconds).
  sim::SimTime get_time(const std::string& key, sim::SimTime fallback) const;
  /// Throws std::runtime_error with value_error's text for `key`'s value.
  [[noreturn]] void bad_value(const std::string& key, const std::string& want) const;
};

/// "config: [<section>] key '<key>': expected <want>, got '<got>'": the one
/// shape of every rejected scenario value, whether it came from an INI file,
/// a scenario_runner flag or a spec built in code.
std::string value_error(const std::string& section, const std::string& key,
                        const std::string& want, const std::string& got);

/// Parse a duration literal ("500ms"); throws on malformed input and on a
/// value that is negative, not finite, or not below 2^63 ns.
sim::SimTime parse_time(std::string_view text);

class Config {
 public:
  /// Keys before any [section] header land in an implicit "" section.
  static Config parse_string(std::string_view text);
  /// Throws std::runtime_error when the file cannot be read.
  static Config parse_file(const std::string& path);

  /// Every section in file order; a repeated header gives one per copy.
  const std::vector<Section>& sections() const { return sections_; }
  /// Set `key` in the first [`section`], appending the section when the
  /// file has none; a value the file gave is replaced.
  void set(std::string_view section, const std::string& key, std::string value);

 private:
  std::vector<Section> sections_;
};

}  // namespace nectar::scenario
