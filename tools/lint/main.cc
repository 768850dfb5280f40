/**
 * @file
 * mct_lint command-line driver.
 *
 *     mct_lint [--root DIR] [--rules FILE] [--format=plain|github]
 *              [--no-include-hygiene] [ROOT...]
 *
 * Scans ROOT... directories (default: src bench tests tools) under
 * the repository root, applies every rule in rules.txt, and prints
 * findings as "file:line: [rule-id] message". Exits 0 when clean,
 * 1 when findings exist, 2 on usage/configuration errors.
 *
 * --format=github renders each finding as a GitHub Actions workflow
 * command ("::error file=F,line=N::...") so the CI analysis job
 * annotates the offending lines in the diff view; exit codes are
 * unchanged.
 *
 * --no-include-hygiene drops every include-hygiene rule before the
 * run — the escape hatch for trees where the heuristic misfires
 * (generated code, umbrella headers) without editing rules.txt.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace
{

int
usage()
{
    std::cerr
        << "usage: mct_lint [--root DIR] [--rules FILE] "
           "[--format=plain|github] [--no-include-hygiene] [ROOT...]\n";
    return 2;
}

/** GitHub workflow commands interpret %, CR, and LF in messages. */
std::string
escapeWorkflowMessage(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '%')
            out += "%25";
        else if (c == '\r')
            out += "%0D";
        else if (c == '\n')
            out += "%0A";
        else
            out += c;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string rulesPath;
    bool noIncludeHygiene = false;
    bool githubFormat = false;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc)
            root = argv[++i];
        else if (arg == "--rules" && i + 1 < argc)
            rulesPath = argv[++i];
        else if (arg == "--format=github")
            githubFormat = true;
        else if (arg == "--format=plain")
            githubFormat = false;
        else if (arg == "--no-include-hygiene")
            noIncludeHygiene = true;
        else if (arg == "--help" || arg == "-h")
            return usage();
        else if (!arg.empty() && arg[0] == '-')
            return usage();
        else
            roots.push_back(arg);
    }
    if (roots.empty())
        roots = {"src", "bench", "tests", "tools"};
    if (rulesPath.empty())
        rulesPath =
            (std::filesystem::path(root) / "tools/lint/rules.txt")
                .string();

    std::ifstream is(rulesPath, std::ios::binary);
    if (!is) {
        std::cerr << "mct_lint: cannot read rules file " << rulesPath
                  << "\n";
        return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    mct::lint::RulesFile rules;
    std::string error;
    if (!mct::lint::parseRules(buf.str(), rules, error)) {
        std::cerr << "mct_lint: " << rulesPath << ": " << error
                  << "\n";
        return 2;
    }

    if (noIncludeHygiene)
        rules.rules.erase(
            std::remove_if(rules.rules.begin(), rules.rules.end(),
                           [](const mct::lint::RuleSpec &r) {
                               return r.builtin == "include-hygiene";
                           }),
            rules.rules.end());

    mct::lint::Linter linter(std::move(rules), root);
    const auto findings = linter.run(roots);

    for (const auto &f : findings) {
        if (githubFormat)
            std::cout << "::error file=" << f.file
                      << ",line=" << f.line << ",title=" << f.rule
                      << "::"
                      << escapeWorkflowMessage("[" + f.rule + "] " +
                                               f.message)
                      << "\n";
        else
            std::cout << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message << "\n";
    }
    if (findings.empty()) {
        std::cout << "mct_lint: clean\n";
        return 0;
    }
    std::cout << "mct_lint: " << findings.size() << " finding(s)\n";
    return 1;
}
