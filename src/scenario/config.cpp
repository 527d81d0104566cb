#include "scenario/config.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nectar::scenario {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string Section::get(const std::string& key, const std::string& fallback) const {
  auto it = values.find(key);
  return it == values.end() ? fallback : it->second;
}

void Section::bad_value(const std::string& key, const std::string& want) const {
  throw std::runtime_error(value_error(name, key, want, get(key)));
}

std::string value_error(const std::string& section, const std::string& key,
                        const std::string& want, const std::string& got) {
  return "config: [" + section + "] key '" + key + "': expected " + want + ", got '" + got + "'";
}

std::int64_t Section::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    bad_value(key, "a 64-bit integer");
  }
  return v;
}

double Section::get_double(const std::string& key, double fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    bad_value(key, "a finite number");
  }
  return v;
}

bool Section::get_bool(const std::string& key, bool fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  bad_value(key, "a boolean");
}

sim::SimTime Section::get_time(const std::string& key, sim::SimTime fallback) const {
  auto it = values.find(key);
  if (it == values.end()) return fallback;
  try {
    return parse_time(it->second);
  } catch (const std::exception&) {
    bad_value(key, "a duration in [0, 2^63) ns (e.g. 250us, 5ms, 2s)");
  }
}

sim::SimTime parse_time(std::string_view text) {
  text = trim(text);
  std::string num(text);
  char* end = nullptr;
  double v = std::strtod(num.c_str(), &end);
  if (end == num.c_str()) throw std::runtime_error("bad duration: " + num);
  std::string_view unit = trim(num.c_str() + (end - num.c_str()));
  double scale;
  if (unit.empty() || unit == "ns") {
    scale = 1;
  } else if (unit == "us") {
    scale = sim::kMicrosecond;
  } else if (unit == "ms") {
    scale = sim::kMillisecond;
  } else if (unit == "s") {
    scale = sim::kSecond;
  } else {
    throw std::runtime_error("bad duration unit: " + std::string(unit));
  }
  // SimTime counts nanoseconds in an int64: the cast is defined only below
  // 2^63. The negated test also rejects nan.
  const double ns = v * scale;
  if (!(ns >= 0.0 && ns < 0x1p63)) throw std::runtime_error("duration out of range: " + num);
  return static_cast<sim::SimTime>(ns);
}

Config Config::parse_string(std::string_view text) {
  Config cfg;
  Section current;  // implicit "" section
  int line_no = 0;
  std::istringstream in{std::string(text)};
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw std::runtime_error("config line " + std::to_string(line_no) +
                                 ": malformed section header: " + std::string(line));
      }
      if (!current.name.empty() || !current.values.empty()) {
        cfg.sections_.push_back(std::move(current));
      }
      current = Section{};
      current.name = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config line " + std::to_string(line_no) +
                               ": expected key = value, got: " + std::string(line));
    }
    std::string key(trim(line.substr(0, eq)));
    std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error("config line " + std::to_string(line_no) + ": empty key");
    }
    if (!current.values.emplace(key, value).second) {
      throw std::runtime_error("config line " + std::to_string(line_no) + ": duplicate key '" +
                               key + "' in section [" + current.name + "]");
    }
  }
  if (!current.name.empty() || !current.values.empty()) {
    cfg.sections_.push_back(std::move(current));
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("config: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_string(buf.str());
}

void Config::set(std::string_view section, const std::string& key, std::string value) {
  for (Section& s : sections_) {
    if (s.name == section) {
      s.values[key] = std::move(value);
      return;
    }
  }
  sections_.push_back(Section{std::string(section), {{key, std::move(value)}}});
}

}  // namespace nectar::scenario
