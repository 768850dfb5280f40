/**
 * @file
 * include-hygiene builtin: unused and missing direct includes.
 *
 * The analysis only reasons about project headers it can resolve to a
 * scanned file (quoted includes; system/external headers are out of
 * scope). Two complementary checks:
 *
 *  - An *unused* direct include: the header declares names (types,
 *    aliases, macros, functions) and none of them occurs in the
 *    including file. Headers declaring nothing extractable are never
 *    reported, and a file's primary header (same basename stem) is
 *    exempt by convention.
 *
 *  - A *missing* direct include: the file uses a type that exactly one
 *    scanned header declares, that header is reachable only through
 *    the transitive include graph, and no directly included header
 *    (or the file itself) declares the name. The uniqueness
 *    requirement keeps the check conservative: a type forward-declared
 *    or re-declared anywhere else disqualifies it. A .cc file's
 *    primary header (same basename stem) is its interface, so every
 *    header the primary reaches counts as covered — only chains
 *    through *other* includes are fragile enough to report.
 *
 * Both checks are heuristics over the comment/string-stripped views;
 * `--no-include-hygiene` (or dropping the rule from rules.txt) turns
 * them off wholesale, and per-path `allow` globs exempt files.
 */

#include "lint.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <vector>

namespace fs = std::filesystem;

namespace mct::lint
{

namespace
{

/** Identifiers that precede '(' without declaring anything. */
const std::set<std::string> &
callKeywords()
{
    static const std::set<std::string> kw = {
        "if",       "for",      "while",        "switch",
        "return",   "sizeof",   "alignof",      "decltype",
        "noexcept", "catch",    "static_assert", "defined",
        "throw",    "new",      "delete",       "assert",
        "case",     "default",  "operator",     "alignas",
        "int",      "char",     "bool",         "double",
        "float",    "long",     "short",        "unsigned",
        "void",     "auto",     "const_cast",   "static_cast",
        "dynamic_cast", "reinterpret_cast"};
    return kw;
}

/** Basename without directories or the extension ("a/b/x.hh" -> "x"). */
std::string
stemOf(const std::string &path)
{
    return fs::path(path).stem().generic_string();
}

/** One direct `#include "..."` with its source line. */
struct DirectInclude
{
    std::string text;
    int line = 0;
    std::size_t target = SIZE_MAX; ///< index into files, or SIZE_MAX
};

/** Everything the analysis needs about one scanned file. */
struct HygieneInfo
{
    std::vector<DirectInclude> includes;
    /** Every name the file declares (types, aliases, macros, and
     *  anything that syntactically looks like a function). */
    std::set<std::string> provided;
    /** The type-like subset (class/struct/enum/union/using-alias). */
    std::set<std::string> types;
    /** Every identifier occurring anywhere in the stripped code. */
    std::set<std::string> idents;
};

void
extractHygieneInfo(const SourceFile &f, HygieneInfo &info)
{
    const std::string &text = f.codeOnly;

    static const std::regex incRe(R"(#\s*include\s*"([^"]*)\")",
                                  std::regex::optimize);
    // Include paths are string literals, blanked in codeOnly; extract
    // from noComments so the quoted path survives.
    const std::string &incText = f.noComments;
    for (auto it = std::sregex_iterator(incText.begin(), incText.end(),
                                        incRe);
         it != std::sregex_iterator(); ++it) {
        DirectInclude d;
        d.text = (*it)[1].str();
        d.line = lineOfOffset(
            incText, static_cast<std::size_t>(it->position(0)));
        info.includes.push_back(std::move(d));
    }

    static const std::regex typeRe(
        R"(\b(?:class|struct|union|enum\s+class|enum)\s+([A-Za-z_]\w*))",
        std::regex::optimize);
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), typeRe);
         it != std::sregex_iterator(); ++it) {
        info.types.insert((*it)[1].str());
        info.provided.insert((*it)[1].str());
    }

    static const std::regex aliasRe(R"(\busing\s+([A-Za-z_]\w*)\s*=)",
                                    std::regex::optimize);
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), aliasRe);
         it != std::sregex_iterator(); ++it) {
        info.types.insert((*it)[1].str());
        info.provided.insert((*it)[1].str());
    }

    static const std::regex defineRe(R"(#\s*define\s+([A-Za-z_]\w*))",
                                     std::regex::optimize);
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), defineRe);
         it != std::sregex_iterator(); ++it)
        info.provided.insert((*it)[1].str());

    // Function-ish names: any identifier directly before '('. Over a
    // header this sweeps declarations plus calls inside inline bodies;
    // the extra names only make the unused-include check more
    // conservative (more chances to count the include as used).
    static const std::regex callRe(R"(\b([A-Za-z_]\w*)\s*\()",
                                   std::regex::optimize);
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), callRe);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (!callKeywords().count(name))
            info.provided.insert(name);
    }

    static const std::regex identRe(R"([A-Za-z_]\w*)",
                                    std::regex::optimize);
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), identRe);
         it != std::sregex_iterator(); ++it)
        info.idents.insert(it->str());
}

/**
 * Resolve an include text against the scanned tree: relative to the
 * including file's directory first (the in-tree convention for
 * tool-local headers), then against the repo-wide include roots.
 */
std::size_t
resolveInclude(const std::string &includer, const std::string &inc,
               const std::map<std::string, std::size_t> &byPath)
{
    std::vector<std::string> candidates;
    const std::string dir =
        fs::path(includer).parent_path().generic_string();
    if (!dir.empty())
        candidates.push_back(
            (fs::path(dir) / inc).lexically_normal().generic_string());
    candidates.push_back(
        (fs::path("src") / inc).lexically_normal().generic_string());
    candidates.push_back(fs::path(inc).lexically_normal()
                             .generic_string());
    for (const auto &c : candidates) {
        const auto it = byPath.find(c);
        if (it != byPath.end())
            return it->second;
    }
    return SIZE_MAX;
}

} // namespace

void
Linter::runIncludeHygiene(const RuleSpec &rule,
                          const std::vector<SourceFile> &files,
                          std::vector<Finding> &out) const
{
    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < files.size(); ++i)
        byPath[files[i].path] = i;

    std::vector<HygieneInfo> info(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        extractHygieneInfo(files[i], info[i]);
        for (auto &d : info[i].includes)
            d.target = resolveInclude(files[i].path, d.text, byPath);
    }

    // How many scanned headers declare each type name. A type with
    // several declarers (forward declarations count) is ambiguous and
    // never drives a missing-include finding.
    std::map<std::string, std::size_t> typeDeclarers;
    std::map<std::string, std::size_t> soleDeclarer;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].path.size() < 3 ||
            files[i].path.compare(files[i].path.size() - 3, 3, ".hh"))
            continue;
        for (const auto &t : info[i].types) {
            ++typeDeclarers[t];
            soleDeclarer[t] = i;
        }
    }

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const SourceFile &f = files[fi];
        if (!inScope(rule, f.path))
            continue;
        const std::string stem = stemOf(f.path);

        std::set<std::size_t> direct;
        for (const auto &d : info[fi].includes)
            if (d.target != SIZE_MAX)
                direct.insert(d.target);

        // --- unused direct includes ---
        for (const auto &d : info[fi].includes) {
            if (d.target == SIZE_MAX)
                continue;
            const std::size_t hi = d.target;
            if (stemOf(files[hi].path) == stem)
                continue; // primary header: always kept
            if (info[hi].provided.empty())
                continue; // nothing extractable; cannot judge
            const bool used = std::any_of(
                info[hi].provided.begin(), info[hi].provided.end(),
                [&](const std::string &name) {
                    return info[fi].idents.count(name) != 0;
                });
            if (!used)
                out.push_back(
                    {f.path, d.line, rule.id,
                     "include \"" + d.text +
                         "\" is unused: none of its declared names "
                         "appears in this file" +
                         (rule.message.empty() ? ""
                                               : "; " + rule.message)});
        }

        // --- missing direct includes ---
        // Names already satisfied: declared here, or by any direct
        // include (the primary header is itself a direct include).
        std::set<std::string> covered = info[fi].provided;
        for (const std::size_t hi : direct)
            covered.insert(info[hi].provided.begin(),
                           info[hi].provided.end());

        const auto closureOf = [&](const std::set<std::size_t> &seed) {
            std::set<std::size_t> closure;
            std::vector<std::size_t> work(seed.begin(), seed.end());
            while (!work.empty()) {
                const std::size_t cur = work.back();
                work.pop_back();
                if (!closure.insert(cur).second)
                    continue;
                for (const auto &d : info[cur].includes)
                    if (d.target != SIZE_MAX)
                        work.push_back(d.target);
            }
            return closure;
        };

        // The primary header is the file's interface: everything it
        // reaches is a dependency the interface already owns, not a
        // fragile back-door, so its whole closure counts as covered.
        std::set<std::size_t> primarySeed;
        for (const std::size_t hi : direct)
            if (stemOf(files[hi].path) == stem)
                primarySeed.insert(hi);
        const std::set<std::size_t> primaryClosure =
            closureOf(primarySeed);

        const std::set<std::size_t> closure = closureOf(direct);
        for (const std::size_t hi : closure) {
            if (direct.count(hi) || hi == fi ||
                primaryClosure.count(hi))
                continue;
            if (stemOf(files[hi].path) == stem)
                continue;
            for (const auto &t : info[hi].types) {
                if (typeDeclarers[t] != 1 || soleDeclarer[t] != hi)
                    continue;
                if (covered.count(t) || !info[fi].idents.count(t))
                    continue;
                // Line of the first whole-word use for the report.
                const std::regex useRe("\\b" + t + "\\b");
                std::smatch m;
                int line = 1;
                if (std::regex_search(f.codeOnly, m, useRe))
                    line = lineOfOffset(
                        f.codeOnly,
                        static_cast<std::size_t>(m.position(0)));
                out.push_back(
                    {f.path, line, rule.id,
                     "uses '" + t + "' declared in \"" +
                         files[hi].path +
                         "\" but reaches it only transitively; "
                         "include it directly" +
                         (rule.message.empty() ? ""
                                               : "; " + rule.message)});
                break; // one finding per missing header
            }
        }
    }
}

} // namespace mct::lint
