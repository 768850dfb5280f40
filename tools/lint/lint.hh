/**
 * @file
 * mct_lint: project-specific static analysis for the MCT tree.
 *
 * The linter enforces contracts no compiler checks:
 *
 *  - determinism rules (no wall clocks, no libc rand, no unseeded
 *    RNGs outside the sanctioned allowlists), because bit-for-bit
 *    reproducible replay is what the fault-injection harness and the
 *    instruction-clocked event trace are built on;
 *  - I/O hygiene: library code under src/ must route diagnostics
 *    through common/logging.hh instead of raw stream writes;
 *  - include hygiene: unused and missing direct includes.
 *
 * The instrumentation contract is not here: tests/test_contract.cc
 * checks the live StatRegistry, the event names and the manifest and
 * fleet writers' keys against docs/observability.md, and the
 * compiler's -Werror=unused-result enforces [[nodiscard]].
 *
 * Pattern rules are pure data: tools/lint/rules.txt declares the
 * regex, the scope globs, the allowlist, and the message, so new bans
 * do not require recompiling the tool. The one named builtin
 * analysis, include-hygiene, needs real parsing; rules.txt still owns
 * its scope and allowlist.
 *
 * Findings print as "file:line: [rule-id] message" and the process
 * exits non-zero when any finding survives, so the lint target gates
 * builds and CI.
 */

#ifndef MCT_TOOLS_LINT_LINT_HH
#define MCT_TOOLS_LINT_LINT_HH

#include <string>
#include <vector>

namespace mct::lint
{

/** One declarative rule parsed from rules.txt. */
struct RuleSpec
{
    /** Stable identifier printed with every finding. */
    std::string id;

    /** ECMAScript regex matched line-by-line (empty for builtins). */
    std::string pattern;

    /** Name of a compiled-in analysis ("include-hygiene"); empty for
     *  pattern rules. */
    std::string builtin;

    /** Path globs the rule applies to (repo-relative, '**' ok). */
    std::vector<std::string> scopes;

    /** Path globs exempt from the rule. */
    std::vector<std::string> allow;

    /** Human-readable explanation printed with findings. */
    std::string message;
};

/** Parsed rules.txt: rules plus global path excludes. */
struct RulesFile
{
    std::vector<RuleSpec> rules;

    /** Globs removed from every scan (e.g. test fixtures). */
    std::vector<std::string> excludes;
};

/**
 * Parse rules.txt text. Grammar (line-oriented):
 *
 *     # comment
 *     exclude <glob>
 *     rule <id>
 *       pattern  <regex to end of line>
 *       builtin  <name>
 *       scope    <glob>        (repeatable)
 *       allow    <glob>        (repeatable)
 *       message  <text to end of line>
 *
 * On error returns false and sets @p error to "line N: why".
 */
bool parseRules(const std::string &text, RulesFile &out,
                std::string &error);

/** One reported violation. */
struct Finding
{
    std::string file; ///< repo-relative path
    int line = 0;     ///< 1-based
    std::string rule;
    std::string message;
};

/** A loaded source file with derived views for matching. */
struct SourceFile
{
    std::string path; ///< repo-relative, forward slashes

    /** Original bytes. */
    std::string raw;

    /**
     * Comments blanked (length-preserving), string literals kept.
     * Used by extraction passes that need literal contents.
     */
    std::string noComments;

    /**
     * Comments and string/char literal *contents* blanked
     * (delimiters kept, length preserved). Regex rules match this so
     * a banned token inside a comment or a message string does not
     * fire.
     */
    std::string codeOnly;
};

/** Build the stripped views of @p content. */
SourceFile preprocess(std::string path, std::string content);

/** fnmatch-lite: '**' crosses directories, '*' stays within one. */
bool globMatch(const std::string &glob, const std::string &path);

/** True when @p path is in @p rule's scope and not allowlisted. */
bool inScope(const RuleSpec &rule, const std::string &path);

/**
 * The linter. Owns the rule set; run() scans a repo-style tree.
 */
class Linter
{
  public:
    Linter(RulesFile rules, std::string rootDir);

    /**
     * Scan @p roots (directories relative to the root, e.g. "src")
     * for *.cc / *.hh files and apply every rule. Returns findings
     * sorted by file, then line.
     */
    std::vector<Finding> run(const std::vector<std::string> &roots);

  private:
    RulesFile rules_;
    std::string root_;

    std::vector<SourceFile> gather(const std::vector<std::string> &roots);

    void runPatternRule(const RuleSpec &rule,
                        const std::vector<SourceFile> &files,
                        std::vector<Finding> &out) const;
    void runIncludeHygiene(const RuleSpec &rule,
                           const std::vector<SourceFile> &files,
                           std::vector<Finding> &out) const;
};

/** Line number (1-based) of byte offset @p pos in @p text. */
int lineOfOffset(const std::string &text, std::size_t pos);

} // namespace mct::lint

#endif // MCT_TOOLS_LINT_LINT_HH
