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
 *  - the instrumentation contract: every stat path registered through
 *    StatRegistry and every EventTrace event type must stay in sync
 *    with docs/observability.md and the JSONL goldens in tests/;
 *  - I/O hygiene: library code under src/ must route diagnostics
 *    through common/logging.hh instead of raw stream writes;
 *  - non-finite safety heuristics for gauge closures feeding the
 *    stat registry.
 *
 * Pattern rules are pure data: tools/lint/rules.txt declares the
 * regex, the scope globs, the allowlist, and the message, so new bans
 * do not require recompiling the tool. A small set of named builtin
 * analyses (stat-contract, nonfinite-gauge, discarded-result,
 * include-hygiene, doc-contract) carry the checks that need real
 * parsing; rules.txt still owns their scope, allowlist, and
 * configuration.
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

    /**
     * Name of a compiled-in analysis ("stat-contract",
     * "nonfinite-gauge", "discarded-result", "include-hygiene",
     * "doc-contract"); empty for pattern rules.
     */
    std::string builtin;

    /** Path globs the rule applies to (repo-relative, '**' ok). */
    std::vector<std::string> scopes;

    /** Path globs exempt from the rule. */
    std::vector<std::string> allow;

    /** Function names for the discarded-result builtin. */
    std::vector<std::string> names;

    /** Documentation file for the stat-contract builtin. */
    std::string docs;

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
 *       names    <a,b,c>
 *       docs     <path>
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

/**
 * True when glob patterns @p a and @p b can describe the same
 * string ('*' matches any run of characters on either side). Used to
 * unify registered stat-path patterns against documented ones.
 */
bool patternsUnify(const std::string &a, const std::string &b);

/** A stat registration extracted from source. */
struct StatReg
{
    std::string pattern; ///< literal path or pattern with '*' holes
    std::string file;
    int line = 0;
    std::string kind; ///< "counter" | "gauge" | "histogram"

    /** Trailing string-literal description argument, rendered like
     *  pattern ('*' holes for non-literal pieces); may be empty. */
    std::string desc;
};

/** Extract StatRegistry registrations from one file. */
std::vector<StatReg> extractStatRegs(const SourceFile &src);

/** Extract TraceEventType names ("phase_change", ...) from a file
 *  containing the toString(TraceEventType) switch. */
std::vector<std::string> extractEventNames(const SourceFile &src);

/**
 * Regenerate the marker-delimited contract tables of a documentation
 * file (--emit-doc-table). Inside the `mct-lint:stat-contract` and
 * `mct-lint:event-contract` sections:
 *
 *  - rows whose backticked name still unifies with a registration
 *    (resp. names an existing event) are kept verbatim, preserving
 *    hand-written placeholders and meanings;
 *  - stale rows are dropped;
 *  - registrations and events matched by no surviving row are
 *    appended as generated rows (stat rows use the extracted pattern
 *    and description; '*' holes read as "any segment").
 *
 * Text outside the marker sections is returned untouched.
 */
std::string regenerateDocTables(const std::string &docText,
                                const std::vector<StatReg> &stats,
                                const std::vector<std::string> &events);

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

    /** Registrations found by the last run's stat-contract pass. */
    const std::vector<StatReg> &statRegs() const { return stats_; }

    /** Event names found by the last run's stat-contract pass. */
    const std::vector<std::string> &eventNames() const
    {
        return events_;
    }

  private:
    RulesFile rules_;
    std::string root_;
    std::vector<StatReg> stats_;
    std::vector<std::string> events_;

    std::vector<SourceFile> gather(const std::vector<std::string> &roots);

    void runPatternRule(const RuleSpec &rule,
                        const std::vector<SourceFile> &files,
                        std::vector<Finding> &out) const;
    void runStatContract(const RuleSpec &rule,
                         const std::vector<SourceFile> &files,
                         std::vector<Finding> &out);
    void runNonfiniteGauge(const RuleSpec &rule,
                           const std::vector<SourceFile> &files,
                           std::vector<Finding> &out) const;
    void runDiscardedResult(const RuleSpec &rule,
                            const std::vector<SourceFile> &files,
                            std::vector<Finding> &out) const;
    void runIncludeHygiene(const RuleSpec &rule,
                           const std::vector<SourceFile> &files,
                           std::vector<Finding> &out) const;
    void runDocContract(const RuleSpec &rule,
                        const std::vector<SourceFile> &files,
                        std::vector<Finding> &out) const;
};

/** Line number (1-based) of byte offset @p pos in @p text. */
int lineOfOffset(const std::string &text, std::size_t pos);

} // namespace mct::lint

#endif // MCT_TOOLS_LINT_LINT_HH
