#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rmrn::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = parse({"--nodes=100", "--loss=5.5"});
  EXPECT_EQ(f.getUnsigned("nodes", 0), 100u);
  EXPECT_DOUBLE_EQ(f.getDouble("loss", 0.0), 5.5);
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = parse({"--nodes", "100", "--name", "hello"});
  EXPECT_EQ(f.getUnsigned("nodes", 0), 100u);
  EXPECT_EQ(f.getString("name", ""), "hello");
}

TEST(FlagsTest, BareSwitchIsTrue) {
  const Flags f = parse({"--verbose", "--nodes=3"});
  EXPECT_TRUE(f.getBool("verbose", false));
  EXPECT_EQ(f.getUnsigned("nodes", 0), 3u);
}

TEST(FlagsTest, SwitchFollowedByFlag) {
  const Flags f = parse({"--verbose", "--nodes", "7"});
  EXPECT_TRUE(f.getBool("verbose", false));
  EXPECT_EQ(f.getUnsigned("nodes", 0), 7u);
}

TEST(FlagsTest, Positional) {
  const Flags f = parse({"run", "--nodes=5", "extra"});
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"run", "extra"}));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.getString("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.getDouble("missing", 1.5), 1.5);
  EXPECT_EQ(f.getInt("missing", -3), -3);
  EXPECT_TRUE(f.getBool("missing", true));
  EXPECT_FALSE(f.has("missing"));
}

TEST(FlagsTest, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}).getBool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).getBool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
  EXPECT_FALSE(parse({"--x=no"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=off"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
}

TEST(FlagsTest, TypeErrorsThrow) {
  EXPECT_THROW((void)parse({"--n=abc"}).getInt("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=1.5x"}).getDouble("n", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--b=maybe"}).getBool("b", false),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--n=-2"}).getUnsigned("n", 0),
               std::invalid_argument);
}

TEST(FlagsTest, MalformedFlagsThrowAtParse) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
  EXPECT_THROW(parse({"--=value"}), std::invalid_argument);
}

TEST(FlagsTest, UnconsumedDetectsTypos) {
  const Flags f = parse({"--nodes=5", "--tpyo=1"});
  (void)f.getUnsigned("nodes", 0);
  const auto unknown = f.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(FlagsTest, LastValueWins) {
  const Flags f = parse({"--n=1", "--n=2"});
  EXPECT_EQ(f.getInt("n", 0), 2);
}

TEST(FlagsTest, NegativeIntegers) {
  const Flags f = parse({"--n=-42"});
  EXPECT_EQ(f.getInt("n", 0), -42);
}

TEST(FlagsTest, UnsignedUpperBoundIsInclusive) {
  constexpr std::uint64_t kU32Max = 4294967295u;
  EXPECT_EQ(parse({"--n=4294967295"}).getUnsigned("n", 0, kU32Max), kU32Max);
  EXPECT_EQ(parse({}).getUnsigned("n", 7, kU32Max), 7u);
  // 2^32 + 100 used to wrap to a 100-node topology.
  try {
    (void)parse({"--nodes=4294967396"}).getUnsigned("nodes", 0, kU32Max);
    FAIL() << "out-of-range value accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--nodes"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967295"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse({"--w=4294967297"}).getUnsigned("w", 1, kU32Max),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--k=11"}).getUnsigned("k", 1, 10),
               std::invalid_argument);
  // Without a bound the full 64-bit range parses.
  EXPECT_EQ(parse({"--n=4294967396"}).getUnsigned("n", 0), 4294967396u);
}

TEST(FlagsTest, UnsignedTakesTheFullSixtyFourBitRange) {
  // A config file accepts any 64-bit seed, so the flag must too.
  EXPECT_EQ(parse({"--seed=9223372036854775808"}).getUnsigned("seed", 0),
            9223372036854775808u);
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).getUnsigned("seed", 0),
            18446744073709551615u);
  for (const char* bad : {"-1", "18446744073709551616", "12abc", "+3", ""}) {
    const std::string arg = std::string("--seed=") + bad;
    try {
      (void)parse({arg.c_str()}).getUnsigned("seed", 0);
      FAIL() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
          << e.what();
    }
  }
}

TEST(FlagsTest, ListIsParsedCheckedAndSorted) {
  EXPECT_EQ(parse({"--losses=30,10,2.5"}).getList("losses", "", 0.0, 100.0),
            (std::vector<double>{2.5, 10.0, 30.0}));
  EXPECT_EQ(parse({}).getList("losses", "20,5", 0.0, 100.0),
            (std::vector<double>{5.0, 20.0}));
  EXPECT_EQ(parse({"--workers=4,1,2"})
                .getList<std::uint32_t>("workers", "1", 1, 4294967295u),
            (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(parse({"--sizes=3"}).getList<std::uint32_t>("sizes", "", 3, 10),
            (std::vector<std::uint32_t>{3}));
}

TEST(FlagsTest, ListErrorsNameTheFlag) {
  const auto message = [](std::initializer_list<const char*> args,
                          const char* name) -> std::string {
    try {
      (void)parse(args).getList(name, "", 0.0, 100.0);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  // Out of range, named after the flag that was given.
  EXPECT_NE(message({"--losses=101"}, "losses").find("--losses"),
            std::string::npos);
  EXPECT_NE(message({"--rates=-1"}, "rates").find("[0, 100]"),
            std::string::npos);
  // Trailing junk, empty lists and empty entries.
  EXPECT_NE(message({"--rates=0,5x"}, "rates").find("'5x'"),
            std::string::npos);
  EXPECT_NE(message({"--rates="}, "rates").find("--rates"),
            std::string::npos);
  EXPECT_NE(message({"--rates=1,,2"}, "rates").find("--rates"),
            std::string::npos);
  EXPECT_NE(message({"--rates=1,"}, "rates").find("--rates"),
            std::string::npos);
  EXPECT_NE(message({"--rates=nan"}, "rates").find("--rates"),
            std::string::npos);
}

TEST(FlagsTest, IntegerListRejectsOutOfRangeAndFractions) {
  EXPECT_THROW((void)parse({"--workers=0,2"})
                   .getList<std::uint32_t>("workers", "1", 1, 4294967295u),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--workers=4294967297"})
                   .getList<std::uint32_t>("workers", "1", 1, 4294967295u),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--sizes=2000,-5"})
                   .getList<std::uint32_t>("sizes", "", 3, 4294967295u),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--sizes=1.5"})
                   .getList<std::uint32_t>("sizes", "", 3, 4294967295u),
               std::invalid_argument);
}

}  // namespace
}  // namespace rmrn::util
