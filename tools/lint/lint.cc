/**
 * @file
 * mct_lint engine: rules.txt parsing, source preprocessing, glob
 * matching, and the pattern-rule scanner. The include-hygiene builtin
 * lives in include_hygiene.cc.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace fs = std::filesystem;

namespace mct::lint
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

bool
parseRules(const std::string &text, RulesFile &out, std::string &error)
{
    out = RulesFile{};
    RuleSpec *cur = nullptr;
    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(is, raw)) {
        ++lineNo;
        const std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.find_first_of(" \t");
        const std::string key = line.substr(0, sp);
        const std::string val =
            sp == std::string::npos ? "" : trim(line.substr(sp));
        if (key == "exclude") {
            out.excludes.push_back(val);
            continue;
        }
        if (key == "rule") {
            if (val.empty()) {
                error = "line " + std::to_string(lineNo) +
                        ": rule needs an id";
                return false;
            }
            out.rules.push_back(RuleSpec{});
            cur = &out.rules.back();
            cur->id = val;
            continue;
        }
        if (!cur) {
            error = "line " + std::to_string(lineNo) + ": '" + key +
                    "' before any rule";
            return false;
        }
        if (key == "pattern")
            cur->pattern = val;
        else if (key == "builtin")
            cur->builtin = val;
        else if (key == "scope")
            cur->scopes.push_back(val);
        else if (key == "allow")
            cur->allow.push_back(val);
        else if (key == "message")
            cur->message = val;
        else {
            error = "line " + std::to_string(lineNo) +
                    ": unknown key '" + key + "'";
            return false;
        }
    }
    for (const auto &r : out.rules) {
        if (r.pattern.empty() == r.builtin.empty()) {
            error = "rule " + r.id +
                    ": needs exactly one of pattern/builtin";
            return false;
        }
    }
    return true;
}

SourceFile
preprocess(std::string path, std::string content)
{
    SourceFile f;
    f.path = std::move(path);
    f.raw = std::move(content);
    f.noComments = f.raw;
    f.codeOnly = f.raw;

    enum class St { Code, Line, Block, Str, Chr, RawStr };
    St st = St::Code;
    std::string rawDelim; // )delim" terminator for raw strings
    const std::string &in = f.raw;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        auto blankBoth = [&](std::size_t k) {
            if (in[k] != '\n') {
                f.noComments[k] = ' ';
                f.codeOnly[k] = ' ';
            }
        };
        auto blankContent = [&](std::size_t k) {
            if (in[k] != '\n')
                f.codeOnly[k] = ' ';
        };
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                blankBoth(i);
            } else if (c == '/' && n == '*') {
                st = St::Block;
                blankBoth(i);
                blankBoth(i + 1);
                ++i;
            } else if (c == 'R' && n == '"') {
                // Raw string literal: R"delim( ... )delim"
                std::size_t p = i + 2;
                std::string d;
                while (p < in.size() && in[p] != '(')
                    d += in[p++];
                rawDelim = ")" + d + "\"";
                st = St::RawStr;
                i = p; // at '(' (or end)
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                blankBoth(i);
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                blankBoth(i);
                blankBoth(i + 1);
                ++i;
                st = St::Code;
            } else {
                blankBoth(i);
            }
            break;
          case St::Str:
            if (c == '\\' && i + 1 < in.size()) {
                blankContent(i);
                blankContent(i + 1);
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else {
                blankContent(i);
            }
            break;
          case St::Chr:
            if (c == '\\' && i + 1 < in.size()) {
                blankContent(i);
                blankContent(i + 1);
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            } else {
                blankContent(i);
            }
            break;
          case St::RawStr:
            if (in.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1;
                st = St::Code;
            } else {
                blankContent(i);
            }
            break;
        }
    }
    return f;
}

namespace
{

bool
globMatchImpl(const char *g, const char *p)
{
    while (*g) {
        if (g[0] == '*' && g[1] == '*') {
            while (g[0] == '*')
                ++g;
            if (*g == '/')
                ++g;
            for (const char *t = p;; ++t) {
                if (globMatchImpl(g, t))
                    return true;
                if (!*t)
                    return false;
            }
        }
        if (*g == '*') {
            ++g;
            for (const char *t = p;; ++t) {
                if (globMatchImpl(g, t))
                    return true;
                if (!*t || *t == '/')
                    return false;
            }
        }
        if (*g == '?') {
            if (!*p || *p == '/')
                return false;
            ++g;
            ++p;
            continue;
        }
        if (*g != *p)
            return false;
        ++g;
        ++p;
    }
    return *p == '\0';
}

} // namespace

bool
globMatch(const std::string &glob, const std::string &path)
{
    return globMatchImpl(glob.c_str(), path.c_str());
}

int
lineOfOffset(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(),
                              text.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      std::min(pos, text.size())),
                              '\n'));
}

Linter::Linter(RulesFile rules, std::string rootDir)
    : rules_(std::move(rules)), root_(std::move(rootDir))
{
}

bool
inScope(const RuleSpec &rule, const std::string &path)
{
    bool scoped = rule.scopes.empty();
    for (const auto &g : rule.scopes)
        if (globMatch(g, path)) {
            scoped = true;
            break;
        }
    if (!scoped)
        return false;
    for (const auto &g : rule.allow)
        if (globMatch(g, path))
            return false;
    return true;
}

std::vector<SourceFile>
Linter::gather(const std::vector<std::string> &roots)
{
    std::vector<SourceFile> files;
    std::vector<std::string> paths;
    for (const auto &r : roots) {
        const fs::path dir = fs::path(root_) / r;
        if (!fs::exists(dir))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(dir)) {
            if (!e.is_regular_file())
                continue;
            const std::string ext = e.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp" &&
                ext != ".hpp" && ext != ".h")
                continue;
            std::string rel =
                fs::relative(e.path(), root_).generic_string();
            bool excluded = false;
            for (const auto &g : rules_.excludes)
                if (globMatch(g, rel)) {
                    excluded = true;
                    break;
                }
            if (!excluded)
                paths.push_back(std::move(rel));
        }
    }
    std::sort(paths.begin(), paths.end());
    for (auto &rel : paths) {
        std::ifstream is(fs::path(root_) / rel, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        files.push_back(preprocess(rel, buf.str()));
    }
    return files;
}

void
Linter::runPatternRule(const RuleSpec &rule,
                       const std::vector<SourceFile> &files,
                       std::vector<Finding> &out) const
{
    const std::regex re(rule.pattern,
                        std::regex::ECMAScript | std::regex::optimize);
    for (const auto &f : files) {
        if (!inScope(rule, f.path))
            continue;
        std::istringstream is(f.codeOnly);
        std::string line;
        int n = 0;
        while (std::getline(is, line)) {
            ++n;
            if (std::regex_search(line, re))
                out.push_back({f.path, n, rule.id, rule.message});
        }
    }
}

std::vector<Finding>
Linter::run(const std::vector<std::string> &roots)
{
    const std::vector<SourceFile> files = gather(roots);
    std::vector<Finding> out;
    for (const auto &rule : rules_.rules) {
        if (!rule.pattern.empty())
            runPatternRule(rule, files, out);
        else if (rule.builtin == "include-hygiene")
            runIncludeHygiene(rule, files, out);
        else
            out.push_back({"rules.txt", 0, rule.id,
                           "unknown builtin '" + rule.builtin + "'"});
    }
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

} // namespace mct::lint
