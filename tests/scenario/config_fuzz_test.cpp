// INI robustness: seeded mutants of every example scenario go through the
// parser and the key rows. Each must bind or throw a std::exception; a crash,
// a hang or any other exception fails the run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "sim/random.hpp"

namespace nectar::scenario {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One to three edits of `text`: flip a byte, delete or duplicate a line, or
/// rewrite a digit (another digit, a sign, a run of nines or nothing).
std::string mutate(const std::string& text, sim::Random& rng) {
  std::string out = text;
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t at = rng.next_below(out.size());
    switch (rng.next_below(4)) {
      case 0:
        out[at] = static_cast<char>(out[at] ^ (1 << rng.next_below(8)));
        break;
      case 1:
      case 2: {
        std::vector<std::string> lines = lines_of(out);
        const std::size_t i = rng.next_below(lines.size());
        if (rng.next_below(2) == 0) {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        }
        out.clear();
        for (const std::string& line : lines) out += line + "\n";
        break;
      }
      default: {
        const std::size_t digit = out.find_first_of("0123456789", at);
        if (digit == std::string::npos) break;
        static const char* const kEdits[] = {"0",  "1", "7", "-",
                                             "-1", "+", "99999999999999999999", ""};
        out.replace(digit, 1, kEdits[rng.next_below(std::size(kEdits))]);
        break;
      }
    }
  }
  return out;
}

TEST(ConfigFuzz, MutatedExampleScenariosBindOrThrow) {
  constexpr int kMutantsPerFile = 500;
  std::size_t files = 0, bound = 0, rejected = 0;
  const std::string dir = std::string(NECTAR_SOURCE_DIR) + "/examples/scenarios";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    ++files;
    // One stream per file, so directory order does not change the mutants.
    sim::Random rng(sim::derive_seed(20261017, entry.path().filename().string()));
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_NO_THROW(ScenarioSpec::from_config(Config::parse_string(text))) << entry.path();
    for (int i = 0; i < kMutantsPerFile; ++i) {
      const std::string mutant = mutate(text, rng);
      try {
        ScenarioSpec::from_config(Config::parse_string(mutant));
        ++bound;
      } catch (const std::exception&) {
        ++rejected;
      }
    }
  }
  EXPECT_GE(files, 7u);
  // The mutator reaches both outcomes, so neither path goes untested.
  EXPECT_GT(bound, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace nectar::scenario
