#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace rmrn_lint {

namespace {

// ---------------------------------------------------------------- paths ----

bool contains(const std::string& path, const std::string& sub) {
  return path.find(sub) != std::string::npos;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool isHeader(const std::string& path) {
  return endsWith(path, ".hpp") || endsWith(path, ".h") ||
         endsWith(path, ".hh") || endsWith(path, ".hxx");
}

bool inSrc(const std::string& path) {
  return contains(path, "/src/") || startsWith(path, "src/");
}

bool inHarness(const std::string& path) {
  return contains(path, "src/harness/");
}

bool inDetTwoScope(const std::string& path) {
  return contains(path, "src/core/") || contains(path, "src/sim/") ||
         contains(path, "src/protocols/") || contains(path, "src/net/");
}

bool inHotScope(const std::string& path) {
  static const std::array<const char*, 12> kHotFiles = {
      "sim/event_queue.hpp",
      "sim/event_queue.cpp",
      "sim/network.hpp",
      "sim/network.cpp",
      "sim/parallel_engine.hpp",
      "sim/parallel_engine.cpp",
      "core/shard_planner.hpp",
      "core/shard_planner.cpp",
      "util/gf256.hpp",
      "util/gf256.cpp",
      "protocols/coded_protocol.hpp",
      "protocols/coded_protocol.cpp",
  };
  return std::any_of(kHotFiles.begin(), kHotFiles.end(),
                     [&](const char* f) { return endsWith(path, f); });
}

// --------------------------------------------------------- suppressions ----

struct Directives {
  // line -> rules allowed on that line and the next.
  std::vector<std::pair<int, std::set<std::string>>> allows;
  std::vector<int> init_markers;  // `// rmrn-lint: init-phase` lines
  std::vector<Finding> lnt;       // LNT-1 findings (malformed directives)
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Directives parseDirectives(const LexedFile& file) {
  Directives out;
  const std::string kTag = "rmrn-lint:";
  for (const Comment& comment : file.comments) {
    const std::size_t tag = comment.text.find(kTag);
    if (tag == std::string::npos) continue;
    const std::string body = trim(comment.text.substr(tag + kTag.size()));
    if (startsWith(body, "init-phase")) {
      out.init_markers.push_back(comment.line);
      continue;
    }
    if (startsWith(body, "allow(")) {
      const std::size_t close = body.find(')');
      if (close == std::string::npos) {
        out.lnt.push_back(Finding{file.path, comment.line, "LNT-1",
                                  "malformed suppression: missing ')'"});
        continue;
      }
      std::set<std::string> rules;
      std::string list = body.substr(6, close - 6);
      bool bad_rule = false;
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string rule = trim(
            list.substr(pos, comma == std::string::npos ? comma : comma - pos));
        if (!rule.empty()) {
          const auto& known = allRules();
          if (std::find(known.begin(), known.end(), rule) == known.end()) {
            out.lnt.push_back(Finding{file.path, comment.line, "LNT-1",
                                      "suppression names unknown rule '" +
                                          rule + "'"});
            bad_rule = true;
          } else {
            rules.insert(rule);
          }
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      const std::string reason = trim(body.substr(close + 1));
      if (reason.empty()) {
        out.lnt.push_back(
            Finding{file.path, comment.line, "LNT-1",
                    "suppression without a reason: every allow() must say why"});
        continue;  // reasonless allows do not suppress anything
      }
      if (rules.empty() && !bad_rule) {
        out.lnt.push_back(Finding{file.path, comment.line, "LNT-1",
                                  "suppression names no rules"});
        continue;
      }
      out.allows.emplace_back(comment.line, std::move(rules));
      continue;
    }
    out.lnt.push_back(Finding{file.path, comment.line, "LNT-1",
                              "unrecognized rmrn-lint directive '" + body +
                                  "' (want allow(RULE) reason or init-phase)"});
  }
  return out;
}

// ---------------------------------------------------------------- rules ----

bool isIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool isPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

const Token* prevTok(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 ? &toks[i - 1] : nullptr;
}

const Token* nextTok(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() ? &toks[i + 1] : nullptr;
}

// util::FlatTable (and its set alias FlatSet) walks in slot order, which
// hashing decides: for DET-2 it is one more unordered container.
bool isUnorderedContainer(const std::string& text) {
  return text == "unordered_map" || text == "unordered_set" ||
         text == "unordered_multimap" || text == "unordered_multiset" ||
         text == "FlatTable" || text == "FlatSet";
}

/// An unordered container type named without template arguments.
bool isUnorderedAlias(const std::string& text) { return text == "FlatSet"; }

void runDetOne(const LexedFile& file, std::vector<Finding>& findings) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const Token* prev = prevTok(toks, i);
    const Token* next = nextTok(toks, i);
    const bool member_access =
        prev != nullptr && (isPunct(*prev, ".") || isPunct(*prev, "->"));
    if (t.text == "random_device") {
      findings.push_back(
          Finding{file.path, t.line, "DET-1",
                  "std::random_device is unseeded entropy; derive streams "
                  "from an explicit seed (util::Rng)"});
    } else if ((t.text == "rand" || t.text == "srand") && next != nullptr &&
               isPunct(*next, "(") && !member_access) {
      findings.push_back(Finding{file.path, t.line, "DET-1",
                                 t.text + "() uses hidden global RNG state; "
                                          "derive streams from an explicit "
                                          "seed (util::Rng)"});
    } else if (t.text == "time" && next != nullptr && isPunct(*next, "(") &&
               !member_access) {
      // `x.time(...)` is a member; bare `time(` or `std::time(` is libc.
      bool qualified_non_std = false;
      if (prev != nullptr && isPunct(*prev, "::")) {
        const Token* qual = i >= 2 ? &toks[i - 2] : nullptr;
        qualified_non_std = qual == nullptr || !isIdent(*qual, "std");
      }
      if (!qualified_non_std) {
        findings.push_back(Finding{file.path, t.line, "DET-1",
                                   "wall-clock time() in simulation code; "
                                   "simulated time comes from the event "
                                   "queue, real time only in harness/"});
      }
    } else if (t.text == "steady_clock" || t.text == "system_clock" ||
               t.text == "high_resolution_clock") {
      findings.push_back(Finding{file.path, t.line, "DET-1",
                                 "std::chrono::" + t.text +
                                     " read in simulation code; wall-clock "
                                     "timing belongs in harness/ or bench/"});
    }
  }
}

void runDetTwo(const LexedFile& file, const std::set<std::string>& extra,
               std::vector<Finding>& findings) {
  const std::vector<Token>& toks = file.tokens;

  std::set<std::string> tracked = collectTrackedNames(file);
  tracked.insert(extra.begin(), extra.end());

  // Pass 2a: range-for whose range expression mentions a tracked name or an
  // unordered container type directly.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "(")) continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (isPunct(toks[j], "(")) ++depth;
      if (isPunct(toks[j], ")")) {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (depth == 1 && colon == 0 && isPunct(toks[j], ":")) colon = j;
    }
    if (colon == 0 || close == 0) continue;  // classic for loop
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind != TokKind::kIdentifier) continue;
      // `m[k]`, `m.at(k)`, `m->second` range over an *element* of the
      // container, not the container: only a bare mention fires.
      if (j + 1 < close && (isPunct(toks[j + 1], "[") ||
                            isPunct(toks[j + 1], ".") ||
                            isPunct(toks[j + 1], "->"))) {
        continue;
      }
      if (tracked.count(toks[j].text) != 0 ||
          isUnorderedContainer(toks[j].text)) {
        findings.push_back(
            Finding{file.path, toks[i].line, "DET-2",
                    "range-for over an unordered container ('" + toks[j].text +
                        "'): hash-walk order is outside the determinism "
                        "contract; iterate a sorted key view instead"});
        break;
      }
    }
  }

  // Pass 2b: explicit iterator walks, tracked.begin() / tracked->cbegin(),
  // and FlatTable's erase-if sweep, tracked.eraseIf(...).
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        tracked.count(toks[i].text) == 0) {
      continue;
    }
    if (!isPunct(toks[i + 1], ".") && !isPunct(toks[i + 1], "->")) continue;
    const std::string& m = toks[i + 2].text;
    if (toks[i + 2].kind == TokKind::kIdentifier &&
        (m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin" ||
         m == "eraseIf")) {
      findings.push_back(
          Finding{file.path, toks[i].line, "DET-2",
                  "iterator walk over an unordered container ('" +
                      toks[i].text +
                      "'): hash-walk order is outside the determinism "
                      "contract; iterate a sorted key view instead"});
    }
  }
}

void runHotOne(const LexedFile& file, const std::vector<int>& init_markers,
               std::vector<Finding>& findings) {
  const std::vector<Token>& toks = file.tokens;
  static const std::set<std::string> kGrowthCalls = {
      "push_back", "emplace_back", "emplace", "resize",
      "reserve",   "insert",       "assign",  "append"};

  std::size_t marker = 0;  // next unconsumed init-phase marker
  int depth = 0;
  int init_depth = -1;  // brace depth whose matching '}' ends the init region

  // A '{' opens the marked function's *body* (rather than a brace-init in
  // its member-init list) when the preceding token closes the parameter list
  // or a specifier/init-list that follows it.
  const auto opens_body = [&](std::size_t i) {
    if (i == 0) return true;
    const Token& p = toks[i - 1];
    return isPunct(p, ")") || isPunct(p, "}") || isIdent(p, "const") ||
           isIdent(p, "noexcept") || isIdent(p, "override") ||
           isIdent(p, "final");
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (isPunct(t, "{")) {
      ++depth;
      if (init_depth < 0 && marker < init_markers.size() &&
          init_markers[marker] <= t.line && opens_body(i)) {
        init_depth = depth;
        ++marker;
      }
      continue;
    }
    if (isPunct(t, "}")) {
      if (depth == init_depth) init_depth = -1;
      --depth;
      continue;
    }
    if (init_depth >= 0) continue;  // inside an init-phase function
    if (t.kind != TokKind::kIdentifier) continue;

    const Token* prev = prevTok(toks, i);
    const Token* next = nextTok(toks, i);
    if (t.text == "new") {
      findings.push_back(Finding{file.path, t.line, "HOT-1",
                                 "operator new in a hot-path file outside an "
                                 "init-phase function (zero-allocation data "
                                 "plane, DESIGN.md §10)"});
    } else if (t.text == "make_shared" || t.text == "make_unique") {
      findings.push_back(Finding{file.path, t.line, "HOT-1",
                                 t.text + " allocates in a hot-path file "
                                          "outside an init-phase function"});
    } else if (t.text == "function" && prev != nullptr &&
               isPunct(*prev, "::") && i >= 2 && isIdent(toks[i - 2], "std")) {
      findings.push_back(Finding{file.path, t.line, "HOT-1",
                                 "std::function in a hot-path file: "
                                 "type-erased closures allocate; use typed "
                                 "events (sim/event.hpp)"});
    } else if (kGrowthCalls.count(t.text) != 0 && prev != nullptr &&
               (isPunct(*prev, ".") || isPunct(*prev, "->")) &&
               next != nullptr && isPunct(*next, "(")) {
      findings.push_back(Finding{file.path, t.line, "HOT-1",
                                 "container growth call ." + t.text +
                                     "() in a hot-path file outside an "
                                     "init-phase function"});
    }
  }
}

void runHygOne(const LexedFile& file, std::vector<Finding>& findings) {
  bool has_pragma_once = false;
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kPPDirective) continue;
    const std::string text = trim(t.text);
    if (startsWith(text, "pragma") &&
        text.find("once") != std::string::npos) {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    findings.push_back(
        Finding{file.path, 1, "HYG-1", "header is missing #pragma once"});
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (isIdent(toks[i], "using") && isIdent(toks[i + 1], "namespace")) {
      findings.push_back(Finding{file.path, toks[i].line, "HYG-1",
                                 "using namespace in a header leaks into "
                                 "every includer"});
    }
  }
}

}  // namespace

std::set<std::string> collectTrackedNames(const LexedFile& file) {
  // Names declared with an unordered container type (members, locals,
  // parameters).  Type aliases are a known blind spot — the rule is a
  // tripwire, not a proof.
  const std::vector<Token>& toks = file.tokens;
  std::set<std::string> tracked;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdentifier ||
        !isUnorderedContainer(toks[i].text)) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && isPunct(toks[j], "<")) {
      int depth = 1;
      ++j;
      while (j < toks.size() && depth > 0) {
        if (isPunct(toks[j], "<")) ++depth;
        if (isPunct(toks[j], ">")) --depth;
        if (isPunct(toks[j], ";") || isPunct(toks[j], "{")) break;  // bail
        ++j;
      }
      if (depth != 0) continue;
    } else if (!isUnorderedAlias(toks[i].text)) {
      continue;
    }
    while (j < toks.size() &&
           (isIdent(toks[j], "const") || isPunct(toks[j], "&") ||
            isPunct(toks[j], "*"))) {
      ++j;
    }
    while (j + 1 < toks.size() && toks[j].kind == TokKind::kIdentifier) {
      tracked.insert(toks[j].text);
      if (!isPunct(toks[j + 1], ",")) break;
      j += 2;
    }
  }
  return tracked;
}

const std::vector<std::string>& allRules() {
  static const std::vector<std::string> kRules = {"DET-1", "DET-2", "HOT-1",
                                                  "HYG-1"};
  return kRules;
}

std::vector<Finding> runRules(const LexedFile& file, const RuleConfig& config) {
  const auto enabled = [&](const char* rule) {
    return config.rules.empty() || config.rules.count(rule) != 0;
  };

  const Directives directives = parseDirectives(file);
  std::vector<Finding> findings;

  if (enabled("DET-1") &&
      (config.ignore_paths || (inSrc(file.path) && !inHarness(file.path)))) {
    runDetOne(file, findings);
  }
  if (enabled("DET-2") && (config.ignore_paths || inDetTwoScope(file.path))) {
    runDetTwo(file, config.extra_tracked, findings);
  }
  if (enabled("HOT-1") && (config.ignore_paths || inHotScope(file.path))) {
    runHotOne(file, directives.init_markers, findings);
  }
  if (enabled("HYG-1") && isHeader(file.path) &&
      (config.ignore_paths || inSrc(file.path))) {
    runHygOne(file, findings);
  }

  // Apply suppressions: an allow on line L silences matching findings on L
  // and L+1.  LNT-1 findings are never suppressible.
  std::vector<Finding> surviving;
  for (Finding& f : findings) {
    const bool suppressed = std::any_of(
        directives.allows.begin(), directives.allows.end(),
        [&](const std::pair<int, std::set<std::string>>& allow) {
          return (allow.first == f.line || allow.first + 1 == f.line) &&
                 allow.second.count(f.rule) != 0;
        });
    if (!suppressed) surviving.push_back(std::move(f));
  }
  surviving.insert(surviving.end(), directives.lnt.begin(),
                   directives.lnt.end());
  std::sort(surviving.begin(), surviving.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return surviving;
}

}  // namespace rmrn_lint
