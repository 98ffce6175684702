#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/env.hpp"

namespace taamr {
namespace {

namespace fs = std::filesystem;

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::set<std::string> matches(const std::string& text, const std::regex& re) {
  std::set<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), re), end; it != end; ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

// Every TAAMR_* variable the code reads is a quoted literal (the argument
// of std::getenv or env::get_*).
std::set<std::string> knobs_read_by_code(const fs::path& root) {
  const std::regex literal("\"(TAAMR_[A-Z0-9_]+)\"");
  std::set<std::string> out;
  for (const char* dir : {"src", "tools", "bench", "examples"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      out.merge(matches(read_text(entry.path()), literal));
    }
  }
  return out;
}

// README's knob tables name each knob the code reads in backticks. The two
// sets must match, so a knob is never added without documentation or left
// documented after its reader is gone.
TEST(EnvKnobInventory, ReadmeDocumentsExactlyTheKnobsTheCodeReads) {
  const fs::path root = TAAMR_SOURCE_ROOT;
  const std::set<std::string> read_by_code = knobs_read_by_code(root);
  const std::set<std::string> documented =
      matches(read_text(root / "README.md"), std::regex("`(TAAMR_[A-Z0-9_]+)`"));
  EXPECT_FALSE(read_by_code.empty());
  EXPECT_EQ(read_by_code, documented);
}

// Every TAAMR_* variable a ctest script, a CMakeLists.txt or CI puts into a
// process environment (NAME=value in an ENV list or a shell line, NAME:
// value in a workflow env block) is one the code reads, so a gate never
// sets a knob that has lost its reader. The compile definitions and the
// sanitizer cache option are build settings, not environment.
TEST(EnvKnobInventory, ScriptsSetOnlyKnobsTheCodeReads) {
  const fs::path root = TAAMR_SOURCE_ROOT;
  const std::set<std::string> read_by_code = knobs_read_by_code(root);
  std::vector<fs::path> scripts = {root / ".github/workflows/ci.yml"};
  for (const char* dir : {".", "src", "tools", "bench", "examples", "tests"}) {
    scripts.push_back(root / dir / "CMakeLists.txt");
  }
  for (const auto& entry : fs::directory_iterator(root / "cmake")) {
    if (entry.path().extension() == ".cmake") scripts.push_back(entry.path());
  }
  const std::regex assigned("(TAAMR_[A-Z0-9_]+)(?:=|: )");
  const std::set<std::string> build_settings = {"TAAMR_GIT_SHA", "TAAMR_BUILD_TYPE",
                                                "TAAMR_SOURCE_ROOT", "TAAMR_SANITIZE"};
  std::size_t set_by_scripts = 0;
  for (const fs::path& script : scripts) {
    for (const std::string& name : matches(read_text(script), assigned)) {
      if (build_settings.count(name)) continue;
      ++set_by_scripts;
      EXPECT_TRUE(read_by_code.count(name))
          << script.lexically_relative(root) << " sets " << name << ", which no code reads";
    }
  }
  EXPECT_GT(set_by_scripts, 0u);
}

// Every executable the root project builds, except this test binary, runs in
// some ctest: its $<TARGET_FILE:name> appears in an add_test call or in a
// taamr_smoke call (which wraps add_test). A binary added without a run
// fails here.
TEST(BinaryInventory, EveryBuiltExecutableRunsInSomeTest) {
  const fs::path root = TAAMR_SOURCE_ROOT;
  const std::regex built_re(R"((?:add_executable|taamr_bench|taamr_example)\(([A-Za-z0-9_]+))");
  const std::regex test_re(R"((?:add_test|taamr_smoke)\(([^)]*)\))");
  const std::regex target_file_re(R"(\$<TARGET_FILE:([A-Za-z0-9_]+)>)");
  std::set<std::string> built, run;
  for (const char* dir : {".", "src", "tools", "bench", "examples", "tests"}) {
    const std::string text = read_text(root / dir / "CMakeLists.txt");
    built.merge(matches(text, built_re));
    for (const std::string& call : matches(text, test_re)) {
      run.merge(matches(call, target_file_re));
    }
  }
  EXPECT_TRUE(built.count("table2_chr"));
  EXPECT_EQ(built.erase("taamr_tests"), 1u);
  for (const std::string& name : built) {
    EXPECT_TRUE(run.count(name)) << name << " is built but no ctest runs it";
  }
}

// A variable no binary reads, set and cleared per test.
constexpr const char* kKnob = "TAAMR_ENV_TEST_KNOB";

class EnvKnob : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kKnob); }
  void set(const char* value) { ::setenv(kKnob, value, 1); }
};

TEST(EnvParse, AcceptsOnlyWholeIntegers) {
  EXPECT_EQ(env::parse_int("42").value_or(0), 42);
  EXPECT_EQ(env::parse_int("-7").value_or(0), -7);
  EXPECT_EQ(env::parse_int("9223372036854775807").value_or(0), INT64_MAX);
  for (const char* bad : {"", " 4", "4 ", "+4", "4x", "0x10", "1.5", "banana",
                          "9223372036854775808"}) {
    EXPECT_FALSE(env::parse_int(bad).has_value()) << "'" << bad << "'";
  }
}

TEST_F(EnvKnob, UnsetOrEmptyMeansDefault) {
  EXPECT_EQ(env::get_int(kKnob, 17), 17);
  set("");
  EXPECT_EQ(env::get_int(kKnob, 17), 17);
  EXPECT_DOUBLE_EQ(env::get_positive_real(kKnob, 0.5), 0.5);
}

TEST_F(EnvKnob, ReadsInRangeIntegers) {
  set("128");
  EXPECT_EQ(env::get_int(kKnob, 1), 128);
  EXPECT_EQ(env::get_int(kKnob, 1, 128, 128), 128);
  set("0");
  EXPECT_EQ(env::get_int(kKnob, 5, 0), 0);
}

TEST_F(EnvKnob, MalformedOrOutOfRangeFallsBack) {
  for (const char* bad : {"banana", "12abc", " 3", "-3", "0"}) {
    set(bad);
    EXPECT_EQ(env::get_int(kKnob, 9), 9) << "'" << bad << "'";
  }
  set("20000");
  EXPECT_EQ(env::get_int(kKnob, 97, 1, 10000), 97);
}

TEST_F(EnvKnob, PositiveRealRejectsZeroNegativeAndNonFinite) {
  set("0.025");
  EXPECT_DOUBLE_EQ(env::get_positive_real(kKnob, 1.0), 0.025);
  for (const char* bad : {"0", "-0.5", "inf", "nan", "1e999", "0.5x"}) {
    set(bad);
    EXPECT_DOUBLE_EQ(env::get_positive_real(kKnob, 1.0), 1.0) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace taamr
