// Drives the rmrn-lint binary over the fixture corpus: every rule must fire
// on its firing fixture (exact rule id at the exact line), stay quiet on its
// clean fixture, honour a justified allow(), and stop firing when deselected
// via --rules.  LNT-1 (suppression hygiene) is additionally checked to be
// always-on and never suppressible.
//
// The binary path and fixture directory arrive as compile definitions
// (RMRN_LINT_BIN, RMRN_LINT_FIXTURES) from tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout only: one `path:line: RULE: message` per line
};

std::string fixture(const std::string& name) {
  return std::string(RMRN_LINT_FIXTURES) + "/" + name;
}

RunResult runLint(const std::string& args) {
  const std::string cmd =
      std::string(RMRN_LINT_BIN) + " " + args + " 2>/dev/null";
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Runs one rule (plus the always-on LNT-1) over one fixture, path filters off.
RunResult runRule(const std::string& rule, const std::string& file) {
  return runLint("--ignore-paths --rules " + rule + " " + fixture(file));
}

void expectFindingAt(const RunResult& r, const std::string& file, int line,
                     const std::string& rule) {
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const std::string needle =
      file + ":" + std::to_string(line) + ": " + rule + ":";
  EXPECT_NE(r.output.find(needle), std::string::npos)
      << "expected '" << needle << "' in:\n"
      << r.output;
}

void expectClean(const RunResult& r) {
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(RmrnLint, ListsTheRuleCatalog) {
  const RunResult r = runLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule : {"DET-1", "DET-2", "HOT-1", "HYG-1"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
  }
}

// ---------------------------------------------------------------- DET-1 ----

TEST(RmrnLint, Det1FiresOnUnseededEntropy) {
  expectFindingAt(runRule("DET-1", "det1_fire.cpp"), "det1_fire.cpp", 5,
                  "DET-1");
}

TEST(RmrnLint, Det1CleanOnSeededStream) {
  expectClean(runRule("DET-1", "det1_clean.cpp"));
}

TEST(RmrnLint, Det1SuppressedWithReason) {
  expectClean(runRule("DET-1", "det1_suppressed.cpp"));
}

TEST(RmrnLint, Det1SilentWhenDeselected) {
  expectClean(runRule("DET-2", "det1_fire.cpp"));
}

// ---------------------------------------------------------------- DET-2 ----

TEST(RmrnLint, Det2FiresOnRangeForAndIteratorWalk) {
  const RunResult r = runRule("DET-2", "det2_fire.cpp");
  expectFindingAt(r, "det2_fire.cpp", 6, "DET-2");   // range-for
  expectFindingAt(r, "det2_fire.cpp", 11, "DET-2");  // counts.begin()
}

TEST(RmrnLint, Det2FiresOnFlatTableWalks) {
  const RunResult r = runRule("DET-2", "det2_fire.cpp");
  expectFindingAt(r, "det2_fire.cpp", 17, "DET-2");  // range-for, FlatTable
  expectFindingAt(r, "det2_fire.cpp", 22, "DET-2");  // table.eraseIf()
  expectFindingAt(r, "det2_fire.cpp", 27, "DET-2");  // range-for, FlatSet
}

TEST(RmrnLint, Det2CleanOnSortedView) {
  expectClean(runRule("DET-2", "det2_clean.cpp"));
}

TEST(RmrnLint, Det2SuppressedWithReason) {
  expectClean(runRule("DET-2", "det2_suppressed.cpp"));
}

TEST(RmrnLint, Det2SilentWhenDeselected) {
  expectClean(runRule("DET-1", "det2_fire.cpp"));
}

// ---------------------------------------------------------------- HOT-1 ----

TEST(RmrnLint, Hot1FiresOnGrowthAndStdFunction) {
  const RunResult r = runRule("HOT-1", "hot1_fire.cpp");
  expectFindingAt(r, "hot1_fire.cpp", 6, "HOT-1");  // push_back
  expectFindingAt(r, "hot1_fire.cpp", 9, "HOT-1");  // std::function
}

TEST(RmrnLint, Hot1CleanInsideInitPhase) {
  expectClean(runRule("HOT-1", "hot1_clean.cpp"));
}

TEST(RmrnLint, Hot1SuppressedWithReason) {
  expectClean(runRule("HOT-1", "hot1_suppressed.cpp"));
}

TEST(RmrnLint, Hot1SilentWhenDeselected) {
  expectClean(runRule("DET-1", "hot1_fire.cpp"));
}

// ---------------------------------------------------------------- HYG-1 ----

TEST(RmrnLint, Hyg1FiresOnMissingPragmaAndUsingNamespace) {
  const RunResult r = runRule("HYG-1", "hyg1_fire.hpp");
  expectFindingAt(r, "hyg1_fire.hpp", 1, "HYG-1");  // missing #pragma once
  expectFindingAt(r, "hyg1_fire.hpp", 4, "HYG-1");  // using namespace
}

TEST(RmrnLint, Hyg1CleanHeader) {
  expectClean(runRule("HYG-1", "hyg1_clean.hpp"));
}

TEST(RmrnLint, Hyg1SuppressedWithReason) {
  expectClean(runRule("HYG-1", "hyg1_suppressed.hpp"));
}

TEST(RmrnLint, Hyg1SilentWhenDeselected) {
  expectClean(runRule("DET-1", "hyg1_fire.hpp"));
}

// ---------------------------------------------------------------- LNT-1 ----

TEST(RmrnLint, Lnt1FiresOnMalformedSuppressions) {
  // LNT-1 is always on, whatever --rules selects.
  const RunResult r = runRule("DET-1", "lnt1_fire.cpp");
  expectFindingAt(r, "lnt1_fire.cpp", 2, "LNT-1");  // allow without a reason
  expectFindingAt(r, "lnt1_fire.cpp", 3, "LNT-1");  // unknown rule id
  expectFindingAt(r, "lnt1_fire.cpp", 4, "LNT-1");  // empty rule list
  expectFindingAt(r, "lnt1_fire.cpp", 5, "LNT-1");  // unrecognized directive
}

TEST(RmrnLint, Lnt1CannotBeSuppressed) {
  const RunResult r = runRule("DET-1", "lnt1_unsuppressible.cpp");
  expectFindingAt(r, "lnt1_unsuppressible.cpp", 3, "LNT-1");  // allow(LNT-1)
  // The reasonless allow on line 4 sits in line 3's allow window, yet still
  // fires: LNT-1 findings bypass suppression entirely.
  expectFindingAt(r, "lnt1_unsuppressible.cpp", 4, "LNT-1");
}

TEST(RmrnLint, Lnt1CleanOnJustifiedAllow) {
  expectClean(runRule("DET-1", "det1_suppressed.cpp"));
}

}  // namespace
