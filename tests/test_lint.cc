/**
 * @file
 * Tests for the mct_lint engine: rules.txt parsing, the
 * comment/string-stripping preprocessor, glob matching, and the full
 * analysis run against the seeded fixture project under
 * tests/lint_fixtures/proj (true positives for the pattern rules and
 * include hygiene, allowlists, and finding order).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace mct::lint
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::string
fixtureRoot()
{
    return std::string(MCT_LINT_FIXTURES) + "/proj";
}

/** Count findings matching rule id (and optionally file). */
std::size_t
countOf(const std::vector<Finding> &fs, const std::string &rule,
        const std::string &file = "")
{
    return static_cast<std::size_t>(std::count_if(
        fs.begin(), fs.end(), [&](const Finding &f) {
            return f.rule == rule &&
                   (file.empty() || f.file == file);
        }));
}

bool
hasMessage(const std::vector<Finding> &fs, const std::string &rule,
           const std::string &needle)
{
    return std::any_of(fs.begin(), fs.end(), [&](const Finding &f) {
        return f.rule == rule &&
               f.message.find(needle) != std::string::npos;
    });
}

TEST(ParseRules, ParsesRulesExcludesAndOptions)
{
    const std::string text = "# comment\n"
                             "exclude tests/fixtures/**\n"
                             "\n"
                             "rule no-foo\n"
                             "  pattern   \\bfoo\\s*\\(\n"
                             "  scope     src/**\n"
                             "  scope     bench/**\n"
                             "  allow     src/legacy.cc\n"
                             "  message   foo is banned\n"
                             "\n"
                             "rule hygiene\n"
                             "  builtin   include-hygiene\n";
    RulesFile rf;
    std::string err;
    ASSERT_TRUE(parseRules(text, rf, err)) << err;
    ASSERT_EQ(rf.excludes.size(), 1u);
    EXPECT_EQ(rf.excludes[0], "tests/fixtures/**");
    ASSERT_EQ(rf.rules.size(), 2u);
    EXPECT_EQ(rf.rules[0].id, "no-foo");
    EXPECT_EQ(rf.rules[0].pattern, "\\bfoo\\s*\\(");
    ASSERT_EQ(rf.rules[0].scopes.size(), 2u);
    EXPECT_EQ(rf.rules[0].allow.size(), 1u);
    EXPECT_EQ(rf.rules[0].message, "foo is banned");
    EXPECT_EQ(rf.rules[1].builtin, "include-hygiene");
}

TEST(ParseRules, RejectsRuleWithPatternAndBuiltin)
{
    RulesFile rf;
    std::string err;
    EXPECT_FALSE(parseRules("rule both\n"
                            "  pattern x\n"
                            "  builtin include-hygiene\n",
                            rf, err));
    EXPECT_NE(err.find("exactly one of pattern/builtin"),
              std::string::npos);
}

TEST(ParseRules, RejectsRuleWithNeitherPatternNorBuiltin)
{
    RulesFile rf;
    std::string err;
    EXPECT_FALSE(parseRules("rule empty\n  scope src/**\n", rf, err));
}

TEST(ParseRules, RejectsOptionOutsideRule)
{
    RulesFile rf;
    std::string err;
    EXPECT_FALSE(parseRules("pattern orphan\n", rf, err));
}

TEST(Preprocess, BlanksCommentsAndStringContents)
{
    const std::string code = "int x; // rand()\n"
                             "const char *s = \"rand()\";\n"
                             "/* std::cout */ int y;\n";
    const SourceFile f = preprocess("src/a.cc", code);
    EXPECT_EQ(f.raw.size(), f.noComments.size());
    EXPECT_EQ(f.raw.size(), f.codeOnly.size());
    // Comments are gone from both derived views.
    EXPECT_EQ(f.noComments.find("// rand"), std::string::npos);
    EXPECT_EQ(f.codeOnly.find("std::cout"), std::string::npos);
    // String contents survive in noComments but not codeOnly.
    EXPECT_NE(f.noComments.find("\"rand()\""), std::string::npos);
    EXPECT_EQ(f.codeOnly.find("\"rand()\""), std::string::npos);
    // Code survives everywhere.
    EXPECT_NE(f.codeOnly.find("int y;"), std::string::npos);
}

TEST(Preprocess, HandlesRawStringsAndEscapes)
{
    const std::string code =
        "auto a = R\"(has \"quotes\" inside)\";\n"
        "auto b = \"esc \\\" quote\";\n"
        "int z = 1; // after\n";
    const SourceFile f = preprocess("src/a.cc", code);
    EXPECT_EQ(f.raw.size(), f.codeOnly.size());
    EXPECT_EQ(f.codeOnly.find("quotes"), std::string::npos);
    EXPECT_NE(f.codeOnly.find("int z = 1;"), std::string::npos);
}

TEST(GlobMatch, StarStaysWithinSegment)
{
    EXPECT_TRUE(globMatch("src/*.cc", "src/a.cc"));
    EXPECT_FALSE(globMatch("src/*.cc", "src/sub/a.cc"));
}

TEST(GlobMatch, DoubleStarCrossesSegments)
{
    EXPECT_TRUE(globMatch("src/**", "src/a.cc"));
    EXPECT_TRUE(globMatch("src/**", "src/sub/deep/a.cc"));
    EXPECT_FALSE(globMatch("src/**", "bench/a.cc"));
    EXPECT_TRUE(globMatch("src/**/*.hh", "src/sub/a.hh"));
    EXPECT_FALSE(globMatch("src/**/*.hh", "src/sub/a.cc"));
}

/** The full engine over the seeded fixture project. */
class FixtureRun : public ::testing::Test
{
  protected:
    static const std::vector<Finding> &
    findings()
    {
        static const std::vector<Finding> fs = [] {
            RulesFile rf;
            std::string err;
            const bool ok = parseRules(
                readFile(fixtureRoot() + "/rules.txt"), rf, err);
            EXPECT_TRUE(ok) << err;
            Linter lint(rf, fixtureRoot());
            return lint.run({"src"});
        }();
        return fs;
    }
};

TEST_F(FixtureRun, DetectsSeededPatternViolations)
{
    const auto &fs = findings();
    EXPECT_EQ(countOf(fs, "det-libc-rand", "src/bad.cc"), 1u);
    EXPECT_EQ(countOf(fs, "det-wall-clock", "src/bad.cc"), 1u);
    EXPECT_EQ(countOf(fs, "io-raw-stream", "src/bad.cc"), 1u);
}

TEST_F(FixtureRun, CommentsAndStringsDoNotFire)
{
    // bad.cc mentions rand() and std::cerr in a comment and inside a
    // string literal; only the three real statements may be reported.
    const auto &fs = findings();
    EXPECT_EQ(countOf(fs, "det-libc-rand"), 1u);
    EXPECT_EQ(countOf(fs, "io-raw-stream"), 1u);
}

TEST_F(FixtureRun, AllowlistedFileIsExempt)
{
    const auto &fs = findings();
    EXPECT_EQ(countOf(fs, "det-wall-clock", "src/timer_ok.cc"), 0u);
    // ... and the allowlist is per-rule, not per-file: a violation of
    // another rule in the same file would still be reported (none is
    // seeded, so timer_ok.cc is findings-free).
    for (const auto &f : fs)
        EXPECT_NE(f.file, "src/timer_ok.cc") << f.rule;
}

TEST_F(FixtureRun, IncludeHygieneFlagsUnusedDirectInclude)
{
    const auto &fs = findings();
    // Gadget appears only in a comment and a string literal of
    // inc_main.cc — the stripped views must not count that as a use.
    EXPECT_TRUE(hasMessage(fs, "include-hygiene",
                           "include \"inc_unused.hh\" is unused"));
    // The used headers must not fire.
    EXPECT_FALSE(
        hasMessage(fs, "include-hygiene", "\"inc_used.hh\""));
    EXPECT_FALSE(
        hasMessage(fs, "include-hygiene", "\"inc_umbrella.hh\""));
}

TEST_F(FixtureRun, IncludeHygieneFlagsTransitiveTypeUse)
{
    const auto &fs = findings();
    EXPECT_TRUE(hasMessage(fs, "include-hygiene",
                           "uses 'Cog' declared in "
                           "\"src/inc_indirect.hh\""));
    // Exactly the unused + missing pair, nothing else in the file.
    EXPECT_EQ(countOf(fs, "include-hygiene", "src/inc_main.cc"), 2u);
}

TEST_F(FixtureRun, IncludeHygieneAmbiguousTypeDoesNotFire)
{
    // Twin is declared by two headers; transitively using it must not
    // produce a missing-direct-include finding.
    EXPECT_FALSE(hasMessage(findings(), "include-hygiene", "'Twin'"));
}

TEST_F(FixtureRun, IncludeHygienePrimaryHeaderIsExempt)
{
    // inc_self.cc includes its own header without using any declared
    // name from it; the self-include convention keeps it clean.
    for (const auto &f : findings())
        EXPECT_NE(f.file, "src/inc_self.cc") << f.rule;
}

TEST_F(FixtureRun, FindingsAreSortedByFileThenLine)
{
    const auto &fs = findings();
    ASSERT_GE(fs.size(), 4u); // the acceptance floor: >=4 rule classes
    for (std::size_t i = 1; i < fs.size(); ++i) {
        if (fs[i - 1].file == fs[i].file)
            EXPECT_LE(fs[i - 1].line, fs[i].line);
        else
            EXPECT_LT(fs[i - 1].file, fs[i].file);
    }
}

} // namespace
} // namespace mct::lint
