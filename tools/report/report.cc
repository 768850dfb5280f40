#include "report.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

#include "common/instrument.hh"
#include "common/json.hh"
#include "common/manifest.hh"
#include "common/table.hh"

namespace mct::report
{

// --------------------------------------------------------------------
// JsonValue
// --------------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JsonValue::num(const std::string &key, double dflt) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::Number ? v->number : dflt;
}

std::string
JsonValue::text(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::String ? v->str : dflt;
}

namespace
{

/** Recursive-descent JSON parser over a string. */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s(text) {}

    JsonParse
    run()
    {
        JsonParse out;
        skipWs();
        if (!parseValue(out.value)) {
            out.error = "offset " + std::to_string(pos) + ": " + what;
            return out;
        }
        skipWs();
        if (pos != s.size()) {
            out.error = "offset " + std::to_string(pos) +
                        ": trailing garbage";
            return out;
        }
        out.ok = true;
        return out;
    }

  private:
    const std::string &s;
    std::size_t pos = 0;
    std::string what;

    bool
    fail(const std::string &msg)
    {
        if (what.empty())
            what = msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        const char c = s[pos];
        switch (c) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return fail("expected object key");
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after key");
            JsonValue val;
            if (!parseValue(val))
                return false;
            out.members.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue val;
            if (!parseValue(val))
                return false;
            out.arr.push_back(std::move(val));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return fail("dangling escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                  // The emitters only escape control characters; decode
                  // the BMP code point as UTF-8.
                  if (pos + 4 > s.size())
                      return fail("truncated \\u escape");
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = s[pos++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          cp |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          cp |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return fail("bad \\u escape");
                  }
                  if (cp < 0x80) {
                      out.push_back(static_cast<char>(cp));
                  } else if (cp < 0x800) {
                      out.push_back(
                          static_cast<char>(0xC0 | (cp >> 6)));
                      out.push_back(
                          static_cast<char>(0x80 | (cp & 0x3F)));
                  } else {
                      out.push_back(
                          static_cast<char>(0xE0 | (cp >> 12)));
                      out.push_back(static_cast<char>(
                          0x80 | ((cp >> 6) & 0x3F)));
                      out.push_back(
                          static_cast<char>(0x80 | (cp & 0x3F)));
                  }
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (consume('-')) {}
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        const std::string tok = s.substr(start, pos - start);
        try {
            std::size_t used = 0;
            out.number = std::stod(tok, &used);
            if (used != tok.size())
                return fail("malformed number '" + tok + "'");
        } catch (const std::exception &) {
            return fail("malformed number '" + tok + "'");
        }
        out.kind = JsonValue::Kind::Number;
        return true;
    }
};

/** Slurp a whole file; false when it cannot be opened. */
bool
readFile(const std::string &path, std::string &out, std::string &err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err = path + ": cannot open";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Parse a file that holds one JSON document. */
bool
parseJsonFile(const std::string &path, JsonValue &out, std::string &err)
{
    std::string text;
    if (!readFile(path, text, err))
        return false;
    JsonParse p = parseJson(text);
    if (!p.ok) {
        err = path + ": " + p.error;
        return false;
    }
    out = std::move(p.value);
    return true;
}

} // namespace

JsonParse
parseJson(const std::string &text)
{
    return JsonReader(text).run();
}

// --------------------------------------------------------------------
// Checked field reads
// --------------------------------------------------------------------

namespace
{

/** @p v as an error message shows it. */
std::string
describe(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::String)
        return "\"" + v.str + "\"";
    if (v.kind != JsonValue::Kind::Number)
        return "a non-number";
    std::ostringstream s;
    s << v.number;
    return s.str();
}

/**
 * @p v as a whole number @p T can hold; false, leaving @p out alone,
 * for anything else. Every integer a loader reads goes through here:
 * a raw cast of a negative, fractional or huge double is undefined.
 */
template <typename T>
bool
wholeNumber(const JsonValue &v, T &out)
{
    using Limits = std::numeric_limits<T>;
    // Both bounds are powers of two, so exact as doubles.
    const double lo = static_cast<double>(Limits::min());
    const double hi = 2.0 * static_cast<double>(Limits::max() / 2 + 1);
    const double x = v.number;
    if (v.kind != JsonValue::Kind::Number || !(x >= lo && x < hi) ||
        x != std::floor(x))
        return false;
    out = static_cast<T>(x);
    return true;
}

/** The error for a value @p v of @p what that wholeNumber<T> refused. */
template <typename T>
std::string
notWhole(const std::string &what, const JsonValue &v)
{
    using Limits = std::numeric_limits<T>;
    return what + " must be a whole number in [" +
           std::to_string(Limits::min()) + ", " +
           std::to_string(Limits::max()) + "], got " + describe(v);
}

/**
 * Integer member @p key of @p obj through wholeNumber(). An absent
 * key keeps @p out; any other non-whole value fails with @p err
 * naming @p where and the key.
 */
template <typename T>
bool
readWhole(const JsonValue &obj, const char *key, T &out,
          const std::string &where, std::string &err)
{
    const JsonValue *v = obj.find(key);
    if (!v || wholeNumber(*v, out))
        return true;
    err = notWhole<T>(where + ": '" + key + "'", *v);
    return false;
}

/** Boolean member @p key of @p obj (false when absent or not a bool). */
bool
flag(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::Bool && v->boolean;
}

/**
 * Parse every non-blank line of the JSONL file @p path and hand it to
 * @p row(value, where); "path:line" is the @p where that prefixes any
 * error, the parser's own included.
 */
template <typename Row>
bool
forEachJsonLine(const std::string &path, std::string &err, Row row)
{
    std::string text;
    if (!readFile(path, text, err))
        return false;
    std::istringstream is(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const std::string where = path + ":" + std::to_string(lineNo);
        const JsonParse p = parseJson(line);
        if (!p.ok) {
            err = where + ": " + p.error;
            return false;
        }
        if (!row(p.value, where))
            return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Run data
// --------------------------------------------------------------------

/**
 * Dense LogHistogram index of the bucket whose low bound is @p lo, or
 * LogHistogram::numBuckets when @p lo is no bucket's low bound.
 */
std::size_t
bucketIndex(const JsonValue &lo)
{
    constexpr std::size_t none = LogHistogram::numBuckets;
    if (lo.kind != JsonValue::Kind::Number)
        return none;
    if (lo.number == 0.0)
        return 0;
    // Bucket i >= 1 starts at 2^(i-1) = 0.5 * 2^i.
    int exp = 0;
    const double mant = std::frexp(lo.number, &exp);
    if (mant != 0.5 || exp < 1 || static_cast<std::size_t>(exp) >= none)
        return none;
    return static_cast<std::size_t>(exp);
}

/** A serialized histogram back in the dense, trimmed form that
 *  StatRegistry::snapshot captures. */
bool
loadHistogram(const JsonValue &h, StatValue &out, const std::string &where,
              std::string &err)
{
    out.kind = StatKind::Histogram;
    out.num = h.num("sum", 0.0);
    if (!readWhole(h, "count", out.count, where, err))
        return false;
    std::uint64_t total = 0;
    if (const JsonValue *bs = h.find("buckets")) {
        for (const JsonValue &b : bs->arr) {
            if (b.kind != JsonValue::Kind::Array || b.arr.size() != 2) {
                err = where + ": a bucket is not a [low, count] pair";
                return false;
            }
            const std::size_t i = bucketIndex(b.arr[0]);
            if (i == LogHistogram::numBuckets) {
                err = where + ": bucket low " + describe(b.arr[0]) +
                      " is neither 0 nor a power of two below 2^63";
                return false;
            }
            std::uint64_t n = 0;
            if (!wholeNumber(b.arr[1], n)) {
                err = notWhole<std::uint64_t>(
                    where + ": bucket " + describe(b.arr[0]), b.arr[1]);
                return false;
            }
            if (n > std::numeric_limits<std::uint64_t>::max() - total) {
                err = where + ": bucket counts overflow";
                return false;
            }
            total += n;
            if (i >= out.buckets.size())
                out.buckets.resize(i + 1, 0);
            out.buckets[i] += n;
        }
    }
    while (!out.buckets.empty() && out.buckets.back() == 0)
        out.buckets.pop_back();
    if (total != out.count) {
        err = where + ": bucket counts sum to " + std::to_string(total) +
              ", 'count' says " + std::to_string(out.count);
        return false;
    }
    return true;
}

/**
 * Load the snapshot object @p snap into @p out. Numbers are counters
 * when @p counters names them and gauges otherwise; objects are
 * histograms; null (a non-finite value) stays absent.
 */
bool
loadSnapshot(const JsonValue &snap, const std::set<std::string> &counters,
             StatSnapshot &out, const std::string &where,
             std::string &err)
{
    for (const auto &[path, v] : snap.members) {
        StatValue sv;
        if (v.kind == JsonValue::Kind::Number) {
            sv.kind = counters.count(path) ? StatKind::Counter
                                           : StatKind::Gauge;
            sv.num = v.number;
        } else if (v.kind == JsonValue::Kind::Object) {
            if (!loadHistogram(v, sv, where + " '" + path + "'", err))
                return false;
        } else {
            continue;
        }
        out.insert_or_assign(path, std::move(sv));
    }
    return true;
}

} // namespace

bool
loadSnapshots(const std::string &path, RunData &out, std::string &err)
{
    JsonValue doc;
    if (!parseJsonFile(path, doc, err))
        return false;
    const std::string schema = doc.text("schema", "");
    if (schema != "mct-stats-v1" && schema != "mct-host-v1" &&
        schema != "mct-timeline-v1" && schema != "mct-fleet-v1") {
        err = path + ": unsupported schema '" + schema + "'";
        return false;
    }
    out.path = path;
    out.mode = doc.text("mode", "");
    out.app = doc.text("app", "");
    out.config = doc.text("config", "");
    const JsonValue *final_ = doc.find("final");
    if (!final_ || final_->kind != JsonValue::Kind::Object) {
        err = path + ": missing 'final' snapshot";
        return false;
    }
    std::set<std::string> counters;
    if (const JsonValue *kinds = doc.find("kinds")) {
        for (const auto &[name, v] : kinds->members)
            if (v.kind == JsonValue::Kind::String && v.str == "counter")
                counters.insert(name);
    }
    if (!loadSnapshot(*final_, counters, out.final, path + ": final",
                      err))
        return false;
    if (const JsonValue *periodic = doc.find("periodic")) {
        for (std::size_t i = 0; i < periodic->arr.size(); ++i) {
            const JsonValue &entry = periodic->arr[i];
            const JsonValue *delta = entry.find("delta");
            if (!delta)
                continue;
            const std::string where =
                path + ": periodic[" + std::to_string(i) + "]";
            std::pair<std::uint64_t, StatSnapshot> w;
            if (!readWhole(entry, "inst", w.first, where, err) ||
                !loadSnapshot(*delta, counters, w.second, where, err))
                return false;
            out.windows.push_back(std::move(w));
        }
    }
    if (const JsonValue *events = doc.find("events")) {
        for (const auto &[name, v] : events->members) {
            if (v.kind == JsonValue::Kind::Number)
                out.eventCounts[name] = v.number;
        }
    }
    out.eventsRecorded = doc.num("events_recorded", 0.0);
    out.eventsDropped = doc.num("events_dropped", 0.0);
    return true;
}

// --------------------------------------------------------------------
// Run manifests (mct-manifest-v1) + fleet rollup (mct-fleet-v1)
// --------------------------------------------------------------------

std::string
ManifestData::artifactPath(const ManifestArtifactRow &a) const
{
    if (!a.path.empty() && a.path[0] == '/')
        return a.path;
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return a.path;
    return path.substr(0, slash + 1) + a.path;
}

const ManifestArtifactRow *
ManifestData::artifact(const std::string &kind) const
{
    for (const ManifestArtifactRow &a : artifacts)
        if (a.kind == kind)
            return &a;
    return nullptr;
}

bool
ManifestData::groupKey(const std::string &field, std::string &out) const
{
    if (field == "app")
        out = app;
    else if (field == "mode")
        out = mode;
    else if (field == "config")
        out = config;
    else if (field == "seed")
        out = std::to_string(seed);
    else if (field == "fault_plan")
        out = faultPlan;
    else if (field == "run_id")
        out = runId;
    else
        return false;
    return true;
}

bool
loadManifest(const std::string &path, ManifestData &out,
             std::string &err)
{
    JsonValue doc;
    if (!parseJsonFile(path, doc, err))
        return false;
    const std::string schema = doc.text("schema", "");
    if (schema != "mct-manifest-v1") {
        err = path + ": unsupported schema '" + schema + "'";
        return false;
    }
    out.path = path;
    out.runId = doc.text("run_id", "");
    out.mode = doc.text("mode", "");
    out.app = doc.text("app", "");
    out.config = doc.text("config", "");
    if (!readWhole(doc, "seed", out.seed, path, err))
        return false;
    out.faultPlan = doc.text("fault_plan", "");
    out.fingerprint = doc.text("fingerprint", "");
    const JsonValue *arts = doc.find("artifacts");
    if (!arts || arts->kind != JsonValue::Kind::Array) {
        err = path + ": missing 'artifacts' array";
        return false;
    }
    for (std::size_t i = 0; i < arts->arr.size(); ++i) {
        const JsonValue &a = arts->arr[i];
        const std::string where = path + ": artifact " + std::to_string(i);
        for (const char *key : {"kind", "path", "bytes", "fnv1a"}) {
            if (!a.find(key)) {
                err = where + ": missing '" + key + "'";
                return false;
            }
        }
        for (const char *key : {"kind", "path"}) {
            if (a.text(key, "").empty()) {
                err = where + ": '" + key + "' must be a non-empty string";
                return false;
            }
        }
        ManifestArtifactRow row;
        row.kind = a.text("kind", "");
        row.schema = a.text("schema", "");
        row.path = a.text("path", "");
        row.fnv1a = a.text("fnv1a", "");
        if (!readWhole(a, "bytes", row.bytes, where, err))
            return false;
        if (row.fnv1a.size() != 16 ||
            row.fnv1a.find_first_not_of("0123456789abcdef") !=
                std::string::npos) {
            err = where + ": 'fnv1a' must be 16 lowercase hex digits, got " +
                  describe(*a.find("fnv1a"));
            return false;
        }
        out.artifacts.push_back(std::move(row));
    }
    return true;
}

bool
verifyManifest(const ManifestData &m, std::string &err)
{
    for (const ManifestArtifactRow &a : m.artifacts) {
        const std::string full = m.artifactPath(a);
        std::uint64_t checksum = 0, bytes = 0;
        if (!checksumFile(full, checksum, bytes)) {
            err = "integrity error: " + m.path + ": artifact '" +
                  a.path + "' cannot be read";
            return false;
        }
        if (bytes != a.bytes) {
            err = "integrity error: " + m.path + ": artifact '" +
                  a.path + "' is " + std::to_string(bytes) +
                  " bytes, manifest says " + std::to_string(a.bytes);
            return false;
        }
        if (checksumHex(checksum) != a.fnv1a) {
            err = "integrity error: " + m.path + ": artifact '" +
                  a.path + "' checksum " + checksumHex(checksum) +
                  " != manifest " + a.fnv1a;
            return false;
        }
    }
    return true;
}

namespace
{

/** One run's contribution to the rollup. */
struct FleetRun
{
    std::string id;  ///< run id (manifest path tiebreaks duplicates)
    std::string key; ///< group-by value
    StatSnapshot snap;
};

/** Merge one group's runs and flag its dispersion outliers. */
FleetGroup
mergeGroup(const std::string &key,
           const std::vector<const FleetRun *> &runs, double outlierK)
{
    FleetGroup g;
    g.key = key;
    StatMerge sm;
    for (const FleetRun *r : runs) {
        g.runIds.push_back(r->id);
        sm.add(r->id, r->snap);
    }
    std::sort(g.runIds.begin(), g.runIds.end());
    g.merged = sm.merge();

    // Outliers: gauges only, in sorted (metric, run) order so the
    // report is deterministic. stddev 0 (or a single run) flags
    // nothing.
    for (const auto &[metric, cells] : g.merged.gauges) {
        if (cells.count < 2 || cells.stddev <= 0.0)
            continue;
        for (const FleetRun *r : runs) {
            const auto it = r->snap.find(metric);
            if (it == r->snap.end() ||
                it->second.kind != StatKind::Gauge)
                continue;
            const double v = it->second.num;
            if (std::abs(v - cells.mean) <=
                outlierK * cells.stddev)
                continue;
            FleetOutlier o;
            o.runId = r->id;
            o.metric = metric;
            o.value = v;
            o.mean = cells.mean;
            o.stddev = cells.stddev;
            g.outliers.push_back(std::move(o));
        }
    }
    std::sort(g.outliers.begin(), g.outliers.end(),
              [](const FleetOutlier &a, const FleetOutlier &b) {
                  if (a.metric != b.metric)
                      return a.metric < b.metric;
                  return a.runId < b.runId;
              });
    return g;
}

/** Uniform value across runs, or "mixed". */
std::string
uniformOr(std::string acc, const std::string &v, bool first)
{
    if (first)
        return v;
    return acc == v ? acc : std::string("mixed");
}

/** The flat "final" snapshot of a merge: original names plus the
 *  fleet.* dispersion cells and sim.fleet.* summary scalars. */
StatSnapshot
fleetFinal(const StatMerge::Result &res, std::size_t groups,
           std::size_t outliers)
{
    StatSnapshot s = res.merged;
    const auto gauge = [&s](const std::string &name, double v) {
        StatValue sv;
        sv.kind = StatKind::Gauge;
        sv.num = v;
        s.emplace(name, std::move(sv));
    };
    for (const auto &[metric, c] : res.gauges) {
        gauge("fleet." + metric + ".count",
              static_cast<double>(c.count));
        gauge("fleet." + metric + ".mean", c.mean);
        gauge("fleet." + metric + ".min", c.min);
        gauge("fleet." + metric + ".max", c.max);
        gauge("fleet." + metric + ".stddev", c.stddev);
    }
    gauge("sim.fleet.runs", static_cast<double>(res.runs));
    gauge("sim.fleet.groups", static_cast<double>(groups));
    gauge("sim.fleet.outliers", static_cast<double>(outliers));
    return s;
}

/** Emit a snapshot's "kinds" object (histograms self-describe). */
void
writeKinds(JsonWriter &w, const StatSnapshot &snap)
{
    w.key("kinds").beginObject();
    for (const auto &[path, v] : snap) {
        if (v.kind == StatKind::Histogram)
            continue;
        w.kv(path,
             v.kind == StatKind::Counter ? "counter" : "gauge");
    }
    w.endObject();
}

} // namespace

bool
aggregateManifests(const std::vector<std::string> &paths,
                   const AggregateOptions &opt, FleetReport &out,
                   std::string &err)
{
    out = FleetReport{};
    if (paths.empty()) {
        err = "no manifests to aggregate";
        return false;
    }
    std::vector<FleetRun> runs;
    bool first = true;
    for (const std::string &path : paths) {
        ManifestData m;
        if (!loadManifest(path, m, err))
            return false;
        if (opt.verify && !verifyManifest(m, err))
            return false;

        FleetRun run;
        run.id = m.runId;
        if (!opt.groupBy.empty() &&
            !m.groupKey(opt.groupBy, run.key)) {
            err = "unknown --group-by field '" + opt.groupBy + "'";
            return false;
        }
        bool any = false;
        // The stats document first: on a path both documents carry,
        // the first one loaded wins.
        for (const char *kind : {"stats", "host"}) {
            const ManifestArtifactRow *a = m.artifact(kind);
            if (!a || (!opt.withHost && a->kind == "host"))
                continue;
            RunData rd;
            std::string loadErr;
            if (!loadSnapshots(m.artifactPath(*a), rd, loadErr)) {
                err = m.path + ": " + loadErr;
                return false;
            }
            run.snap.merge(rd.final);
            any = true;
        }
        if (!any) {
            err = m.path + ": no aggregatable artifacts (need a "
                  "'stats' artifact, or 'host' with --with-host)";
            return false;
        }
        out.mode = uniformOr(out.mode, m.mode, first);
        out.app = uniformOr(out.app, m.app, first);
        out.config = uniformOr(out.config, m.config, first);
        first = false;
        runs.push_back(std::move(run));
    }

    out.groupBy = opt.groupBy;
    out.outlierK = opt.outlierK;
    out.runs = runs.size();

    // Canonical grouping: keys sorted by std::map, members handed to
    // StatMerge which sorts by (id, content) itself — the caller's
    // path order never reaches a floating-point reduction.
    std::map<std::string, std::vector<const FleetRun *>> byKey;
    for (const FleetRun &r : runs)
        byKey[opt.groupBy.empty() ? std::string("all") : r.key]
            .push_back(&r);
    StatMerge allMerge;
    for (const FleetRun &r : runs)
        allMerge.add(r.id, r.snap);
    out.all = allMerge.merge();
    for (const auto &[key, members] : byKey) {
        FleetGroup g = mergeGroup(key, members, opt.outlierK);
        out.outliers += g.outliers.size();
        out.groups.push_back(std::move(g));
    }
    return true;
}

void
writeFleetDoc(std::ostream &os, const FleetReport &r)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-fleet-v1");
    w.kv("mode", r.mode);
    w.kv("app", r.app);
    w.kv("config", r.config);
    w.kv("group_by", r.groupBy);
    w.kv("runs", static_cast<std::uint64_t>(r.runs));
    const StatSnapshot final_ =
        fleetFinal(r.all, r.groups.size(), r.outliers);
    w.key("final");
    writeSnapshot(w, final_);
    writeKinds(w, final_);
    w.key("groups").beginArray();
    for (const FleetGroup &g : r.groups) {
        w.beginObject();
        w.kv("key", g.key);
        w.kv("runs", static_cast<std::uint64_t>(g.runIds.size()));
        w.key("run_ids").beginArray();
        for (const std::string &id : g.runIds)
            w.value(id);
        w.endArray();
        const StatSnapshot gfinal =
            fleetFinal(g.merged, 1, g.outliers.size());
        w.key("final");
        writeSnapshot(w, gfinal);
        w.key("outliers").beginArray();
        for (const FleetOutlier &o : g.outliers) {
            w.beginObject();
            w.kv("run_id", o.runId);
            w.kv("metric", o.metric);
            w.kv("value", o.value);
            w.kv("mean", o.mean);
            w.kv("stddev", o.stddev);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

void
renderFleet(std::ostream &os, const FleetReport &r)
{
    os << "fleet rollup: " << r.runs << " run"
       << (r.runs == 1 ? "" : "s") << ", " << r.groups.size()
       << " group" << (r.groups.size() == 1 ? "" : "s");
    if (!r.groupBy.empty())
        os << " (group-by " << r.groupBy << ")";
    os << ", outlier k=" << r.outlierK << "\n";
    for (const FleetGroup &g : r.groups) {
        os << "\ngroup " << g.key << " (" << g.runIds.size()
           << " run" << (g.runIds.size() == 1 ? "" : "s") << ":";
        for (const std::string &id : g.runIds)
            os << " " << id;
        os << ")\n";
        TextTable t;
        t.header({"metric", "mean", "min", "max", "stddev", "runs"});
        std::size_t skipped = 0;
        for (const auto &[metric, c] : g.merged.gauges) {
            if (metric.rfind("sim.", 0) != 0) {
                ++skipped;
                continue;
            }
            t.row({metric, fmt(c.mean, 4), fmt(c.min, 4),
                   fmt(c.max, 4), fmt(c.stddev, 4),
                   std::to_string(c.count)});
        }
        t.print(os);
        if (skipped)
            os << "  (" << skipped
               << " more gauges in the fleet document)\n";
        for (const FleetOutlier &o : g.outliers)
            os << "  OUTLIER " << o.metric << " run " << o.runId
               << ": " << o.value << " vs mean " << o.mean
               << " (stddev " << o.stddev << ")\n";
    }
}

// --------------------------------------------------------------------
// Timeline (mct-timeline-v1) + alert log (alerts.jsonl)
// --------------------------------------------------------------------

bool
loadTimeline(const std::string &path, TimelineData &out,
             std::string &err)
{
    JsonValue doc;
    if (!parseJsonFile(path, doc, err))
        return false;
    if (doc.text("schema", "") != "mct-timeline-v1") {
        err = path + ": unsupported schema '" +
              doc.text("schema", "") + "'";
        return false;
    }
    out.path = path;
    out.mode = doc.text("mode", "");
    out.app = doc.text("app", "");
    out.config = doc.text("config", "");
    if (!readWhole(doc, "capacity", out.capacity, path, err))
        return false;
    if (const JsonValue *metrics = doc.find("metrics")) {
        for (const JsonValue &m : metrics->arr)
            if (m.kind == JsonValue::Kind::String)
                out.metrics.push_back(m.str);
    }
    if (const JsonValue *insts = doc.find("inst")) {
        for (const JsonValue &v : insts->arr) {
            std::uint64_t inst = 0;
            if (!wholeNumber(v, inst)) {
                err = notWhole<std::uint64_t>(path + ": 'inst'", v);
                return false;
            }
            out.insts.push_back(inst);
        }
    }
    const JsonValue *series = doc.find("series");
    if (!series || series->kind != JsonValue::Kind::Object) {
        err = path + ": missing 'series' object";
        return false;
    }
    for (const auto &[metric, vals] : series->members) {
        std::vector<double> &dst = out.series[metric];
        for (const JsonValue &v : vals.arr) {
            // The writer emits a non-finite window value as null.
            if (v.kind == JsonValue::Kind::Null) {
                dst.push_back(std::numeric_limits<double>::quiet_NaN());
            } else if (v.kind == JsonValue::Kind::Number) {
                dst.push_back(v.number);
            } else {
                err = path + ": series '" + metric + "' window " +
                      std::to_string(dst.size()) + " is not a number";
                return false;
            }
        }
        if (dst.size() != out.insts.size()) {
            err = path + ": series '" + metric + "' has " +
                  std::to_string(dst.size()) + " values for " +
                  std::to_string(out.insts.size()) + " windows";
            return false;
        }
    }
    if (const JsonValue *final_ = doc.find("final")) {
        for (const auto &[name, v] : final_->members)
            if (v.kind == JsonValue::Kind::Number)
                out.finalScalars[name] = v.number;
    }
    return true;
}

bool
loadAlertLog(const std::string &path, AlertLog &out, std::string &err)
{
    return forEachJsonLine(path, err, [&](const JsonValue &v,
                                          const std::string &where) {
        AlertRow row;
        const std::string ev = v.text("ev", "");
        if (ev != "alert_raised" && ev != "alert_cleared") {
            err = where + ": unknown event '" + ev + "'";
            return false;
        }
        row.raised = ev == "alert_raised";
        if (!readWhole(v, "window", row.window, where, err) ||
            !readWhole(v, "inst", row.inst, where, err) ||
            !readWhole(v, "windows_active", row.windowsActive, where,
                       err))
            return false;
        row.value = v.num("value", 0.0);
        row.rule = v.text("rule", "");
        row.metric = v.text("metric", "");
        row.condition = v.text("condition", "");
        row.severity = v.text("severity", "");
        out.rows.push_back(std::move(row));
        return true;
    });
}

std::string
sparkline(const std::vector<double> &vals)
{
    // 8-level ASCII ramp, low to high. Finite extremes normalize the
    // scale; non-finite samples render as '?'.
    static const char ramp[] = "_.-:=+*#";
    double lo = 0.0, hi = 0.0;
    bool seeded = false;
    for (const double v : vals) {
        if (!std::isfinite(v))
            continue;
        lo = seeded ? std::min(lo, v) : v;
        hi = seeded ? std::max(hi, v) : v;
        seeded = true;
    }
    std::string out;
    out.reserve(vals.size());
    for (const double v : vals) {
        if (!std::isfinite(v)) {
            out.push_back('?');
        } else if (hi == lo) {
            out.push_back(ramp[0]);
        } else {
            const double t = (v - lo) / (hi - lo);
            const auto level = static_cast<std::size_t>(t * 7.0 + 0.5);
            out.push_back(ramp[std::min<std::size_t>(level, 7)]);
        }
    }
    return out;
}

void
renderTimeline(std::ostream &os, const TimelineData &tl,
               const AlertLog &alerts, std::size_t maxWindows)
{
    os << "timeline: " << tl.path << "\n";
    os << "mode " << tl.mode << ", app " << tl.app << ", config "
       << tl.config << "\n";
    const auto fin = [&tl](const char *k) {
        const auto it = tl.finalScalars.find(k);
        return it != tl.finalScalars.end() ? it->second : 0.0;
    };
    os << "windows " << tl.insts.size() << " held (recorded "
       << fmt(fin("sim.timeline.recorded"), 0) << ", dropped "
       << fmt(fin("sim.timeline.dropped"), 0) << ", capacity "
       << tl.capacity << ")\n\n";

    const std::size_t n = tl.insts.size();
    const std::size_t from =
        maxWindows && n > maxWindows ? n - maxWindows : 0;

    // Alert markers aligned to the rendered window range, keyed by
    // the metric the alert bound to. The log's inst stamps are
    // matched against the held windows, so events that wrapped out of
    // the ring simply render no marker.
    std::map<std::string, std::string> markers;
    for (const AlertRow &row : alerts.rows) {
        for (std::size_t i = from; i < n; ++i) {
            if (tl.insts[i] != row.inst)
                continue;
            std::string &m = markers[row.metric];
            if (m.empty())
                m.assign(n - from, ' ');
            m[i - from] = row.raised ? '!' : '/';
            break;
        }
    }

    TextTable t;
    t.header({"metric", "min", "max", "ewma", "series"});
    for (const std::string &metric : tl.metrics) {
        const auto it = tl.series.find(metric);
        if (it == tl.series.end())
            continue;
        const std::vector<double> window(it->second.begin() +
                                             static_cast<long>(from),
                                         it->second.end());
        t.row({metric, fmt(fin(("timeline." + metric + ".min").c_str()), 4),
               fmt(fin(("timeline." + metric + ".max").c_str()), 4),
               fmt(fin(("timeline." + metric + ".ewma").c_str()), 4),
               sparkline(window)});
        const auto mk = markers.find(metric);
        if (mk != markers.end())
            t.row({"  alerts", "", "", "", mk->second});
    }
    t.print(os);

    if (!alerts.rows.empty()) {
        os << "\nalerts (" << alerts.rows.size() << " events):\n";
        TextTable a;
        a.header({"window", "inst", "event", "rule", "severity",
                  "metric", "value"});
        for (const AlertRow &row : alerts.rows) {
            a.row({std::to_string(row.window),
                   std::to_string(row.inst),
                   row.raised ? "raised"
                              : "cleared after " +
                                    std::to_string(row.windowsActive),
                   row.rule, row.severity, row.metric,
                   fmt(row.value, 4)});
        }
        a.print(os);
    }
    const double raised = fin("alert.raised");
    if (fin("alert.rules") > 0.0) {
        os << "\nalert totals: " << fmt(raised, 0) << " raised ("
           << fmt(fin("alert.count.critical"), 0) << " critical, "
           << fmt(fin("alert.count.warn"), 0) << " warn, "
           << fmt(fin("alert.count.info"), 0) << " info), "
           << fmt(fin("alert.cleared"), 0) << " cleared, "
           << fmt(fin("alert.active"), 0) << " still active\n";
    }
}

// --------------------------------------------------------------------
// Span JSONL
// --------------------------------------------------------------------

bool
loadSpans(const std::string &path, SpanSet &out, std::string &err)
{
    return forEachJsonLine(path, err, [&](const JsonValue &v,
                                          const std::string &where) {
        SpanRow row;
        if (!readWhole(v, "id", row.id, where, err) ||
            !readWhole(v, "hit_level", row.hitLevel, where, err) ||
            !readWhole(v, "inst", row.inst, where, err))
            return false;
        row.isWrite = v.num("write", 0.0) != 0.0;
        const double beginPs = v.num("begin_ps", 0.0);
        const double endPs = v.num("end_ps", 0.0);
        row.totalNs = (endPs - beginPs) / 1000.0;
        if (const JsonValue *stages = v.find("stages")) {
            for (const auto &[name, iv] : stages->members) {
                if (iv.kind != JsonValue::Kind::Array ||
                    iv.arr.size() != 2)
                    continue;
                row.stageNs[name] =
                    (iv.arr[1].number - iv.arr[0].number) / 1000.0;
            }
        }
        out.spans.push_back(std::move(row));
        return true;
    });
}

// --------------------------------------------------------------------
// Host stage tables
// --------------------------------------------------------------------

bool
loadProfile(const std::string &path, std::vector<HostProfiler::Stage> &out,
            std::string &err)
{
    JsonValue doc;
    if (!parseJsonFile(path, doc, err))
        return false;
    const JsonValue *stages = doc.find("stages");
    if (!stages || stages->kind != JsonValue::Kind::Array) {
        err = path + ": missing 'stages' array";
        return false;
    }
    for (std::size_t i = 0; i < stages->arr.size(); ++i) {
        const JsonValue &s = stages->arr[i];
        HostProfiler::Stage st;
        st.name = s.text("name", "?");
        st.wallSeconds = s.num("seconds", 0.0);
        st.cpuSeconds = s.num("cpu_seconds", 0.0);
        if (!readWhole(s, "calls", st.calls,
                       path + ": stages[" + std::to_string(i) + "]", err))
            return false;
        out.push_back(std::move(st));
    }
    return true;
}

// --------------------------------------------------------------------
// Decision provenance
// --------------------------------------------------------------------

namespace
{

/** Index of provenance objective @p name; false + @p err naming
 *  @p where when the writer has no such objective. */
bool
objectiveIndex(const std::string &name, std::size_t &out,
               const std::string &where, std::string &err)
{
    for (out = 0; out < numProvenanceObjectives; ++out)
        if (name == provenanceObjectiveName(out))
            return true;
    err = where + ": unknown objective '" + name + "'";
    return false;
}

/** One JSONL line of ProvenanceTrace::writeJsonl back into a record. */
bool
provenanceFromJson(const JsonValue &v, ProvenanceRecord &rec,
                   const std::string &where, std::string &err)
{
    if (!readWhole(v, "seq", rec.seq, where, err) ||
        !readWhole(v, "phase", rec.phase, where, err) ||
        !readWhole(v, "inst", rec.inst, where, err) ||
        !readWhole(v, "close_inst", rec.closeInst, where, err) ||
        !readWhole(v, "chosen", rec.chosen, where, err) ||
        !readWhole(v, "sampled", rec.sampledConfigs, where, err))
        return false;
    rec.model = v.text("model", "");
    rec.configKey = v.text("config", "");
    rec.fallback = flag(v, "fallback");
    if (const JsonValue *cons = v.find("constraints")) {
        rec.minLifetimeYears = cons->num("min_lifetime_years", 0.0);
        rec.ipcFraction = cons->num("ipc_fraction", 0.0);
        rec.safetyMargin = cons->num("safety_margin", 0.0);
    }
    if (const JsonValue *objs = v.find("objectives")) {
        for (const auto &[name, ov] : objs->members) {
            std::size_t i = 0;
            if (ov.kind != JsonValue::Kind::Object)
                continue;
            if (!objectiveIndex(name, i, where, err))
                return false;
            ProvenanceObjective &o = rec.objectives[i];
            o.predicted = ov.num("pred", 0.0);
            o.uncertainty = ov.num("sigma", 0.0);
            o.realized = ov.num("real", 0.0);
            o.relError = ov.num("err", 0.0);
            o.errorValid = flag(ov, "err_valid");
        }
    }
    if (const JsonValue *rus = v.find("runner_ups")) {
        for (std::size_t j = 0; j < rus->arr.size(); ++j) {
            const JsonValue &rv = rus->arr[j];
            ProvenanceCandidate c;
            if (!readWhole(rv, "config", c.config,
                           where + ": runner_ups[" + std::to_string(j) +
                               "]",
                           err))
                return false;
            c.ipc = rv.num("ipc", 0.0);
            c.lifetimeYears = rv.num("lifetime_years", 0.0);
            c.energyJ = rv.num("energy_j", 0.0);
            c.feasible = flag(rv, "feasible");
            rec.runnerUps.push_back(c);
        }
    }
    rec.bestSampledIpc = v.num("best_sampled_ipc", 0.0);
    rec.regret = v.num("regret", 0.0);
    rec.cumRegret = v.num("cum_regret", 0.0);
    if (const JsonValue *attr = v.find("attribution")) {
        for (const auto &[name, av] : attr->members) {
            std::size_t i = 0;
            if (av.kind != JsonValue::Kind::Array)
                continue;
            if (!objectiveIndex(name, i, where, err))
                return false;
            for (const JsonValue &wv : av.arr)
                rec.attribution[i].push_back(wv.number);
        }
    }
    rec.closed = flag(v, "closed");
    return true;
}

} // namespace

bool
loadProvenance(const std::string &path,
               std::vector<ProvenanceRecord> &out, std::string &err)
{
    return forEachJsonLine(path, err, [&](const JsonValue &v,
                                          const std::string &where) {
        ProvenanceRecord rec;
        if (!provenanceFromJson(v, rec, where, err))
            return false;
        out.push_back(std::move(rec));
        return true;
    });
}

// --------------------------------------------------------------------
// Thresholds
// --------------------------------------------------------------------

const char *
defaultThresholdsText()
{
    // The rules of tools/report/thresholds.txt in its order, so a diff
    // without --thresholds gates what CI's diffs gate. That includes
    // the mct.audit.* percentile gates: mct-mode runs are
    // deterministic, so one log-bucket move there is a real change
    // (the file explains each slack). Thresholds.DefaultsMatchFile in
    // test_report keeps the two copies equal.
    return R"(# Default mct_report regression gates.
metric sim.objective.ipc
  direction higher
  rel 0.05

metric sim.objective.lifetime_years
  direction higher
  rel 0.05

metric memctrl.avg_read_latency_ns
  direction lower
  rel 0.10

metric memctrl.reads_completed
  direction higher
  rel 0.05

metric cache.*.hit_rate
  direction higher
  rel 0.02
  abs 0.005

metric mct.audit.err.*.p90
  direction lower
  rel 0.5
  abs 0.05

metric mct.audit.err.*.p50
  direction lower
  rel 0.5
  abs 0.05

metric mct.audit.regret.cum
  direction lower
  rel 1.0
  abs 0.1

metric mct.audit.closed
  direction higher
  rel 0.0

metric alert.count.critical
  direction lower
  rel 0.0

metric alert.count.warn
  direction lower
  rel 0.0
  abs 1.0

metric sim.mips
  direction higher
  rel 0.85

metric sim.fleet.runs
  direction higher
  rel 0.0

metric sim.fleet.outliers
  direction lower
  rel 0.0
)";
}

namespace
{

/** Trim whitespace and a trailing '# ...' comment. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    if (const std::size_t hash = s.find('#'); hash != std::string::npos)
        s.erase(hash);
    const std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

bool
parseDouble(const std::string &tok, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(tok, &used);
        return used == tok.size();
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

bool
parseThresholds(const std::string &text, Thresholds &out,
                std::string &err)
{
    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    ThresholdRule cur;
    bool open = false, haveDirection = false;

    const auto flush = [&]() -> bool {
        if (!open)
            return true;
        if (!haveDirection) {
            err = "line " + std::to_string(cur.line) + ": metric '" +
                  cur.metricGlob + "' has no direction";
            return false;
        }
        out.rules.push_back(cur);
        open = false;
        return true;
    };

    while (std::getline(is, raw)) {
        ++lineNo;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key, value;
        ls >> key;
        std::getline(ls, value);
        value = cleanLine(value);
        if (key == "metric") {
            if (!flush())
                return false;
            if (value.empty()) {
                err = "line " + std::to_string(lineNo) +
                      ": metric needs a glob";
                return false;
            }
            cur = ThresholdRule{};
            cur.metricGlob = value;
            cur.line = lineNo;
            open = true;
            haveDirection = false;
        } else if (!open) {
            err = "line " + std::to_string(lineNo) + ": '" + key +
                  "' outside a metric block";
            return false;
        } else if (key == "direction") {
            if (value == "higher") {
                cur.higherIsBetter = true;
            } else if (value == "lower") {
                cur.higherIsBetter = false;
            } else {
                err = "line " + std::to_string(lineNo) +
                      ": direction must be 'higher' or 'lower'";
                return false;
            }
            haveDirection = true;
        } else if (key == "rel" || key == "abs") {
            double v = 0.0;
            if (!parseDouble(value, v) || v < 0.0) {
                err = "line " + std::to_string(lineNo) + ": " + key +
                      " needs a non-negative number";
                return false;
            }
            (key == "rel" ? cur.rel : cur.abs) = v;
        } else {
            err = "line " + std::to_string(lineNo) +
                  ": unknown key '" + key + "'";
            return false;
        }
    }
    return flush();
}

bool
loadThresholds(const std::string &path, Thresholds &out,
               std::string &err)
{
    std::string text;
    if (!readFile(path, text, err))
        return false;
    if (!parseThresholds(text, out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Diff
// --------------------------------------------------------------------

DiffReport
diffRuns(const RunData &base, const RunData &cur, const Thresholds &th)
{
    DiffReport rep;
    for (const auto &[metric, curVal] : cur.final) {
        if (curVal.kind == StatKind::Histogram)
            continue;
        const ThresholdRule *rule = nullptr;
        for (const ThresholdRule &r : th.rules) {
            if (statGlobMatch(r.metricGlob, metric)) {
                rule = &r;
                break; // first matching rule wins
            }
        }
        if (!rule)
            continue;
        const auto bit = base.final.find(metric);
        if (bit == base.final.end() ||
            bit->second.kind == StatKind::Histogram) {
            rep.missingInBase.push_back(metric);
            continue;
        }
        CheckResult c;
        c.metric = metric;
        c.glob = rule->metricGlob;
        c.higherIsBetter = rule->higherIsBetter;
        c.base = bit->second.num;
        c.cur = curVal.num;
        c.allowed = rule->rel * std::fabs(c.base) + rule->abs;
        if (c.base != 0.0)
            c.relChange = (c.cur - c.base) / std::fabs(c.base);
        const double slip =
            rule->higherIsBetter ? c.base - c.cur : c.cur - c.base;
        c.regressed = slip > c.allowed;
        rep.regressions += c.regressed ? 1 : 0;
        rep.checks.push_back(std::move(c));
    }
    return rep;
}

void
renderDiff(std::ostream &os, const RunData &base, const RunData &cur,
           const DiffReport &report)
{
    os << "base: " << base.path << " (app " << base.app << ", config "
       << base.config << ")\n";
    os << "new:  " << cur.path << " (app " << cur.app << ", config "
       << cur.config << ")\n\n";
    TextTable t;
    t.header({"metric", "base", "new", "change", "allowed", "verdict"});
    for (const CheckResult &c : report.checks) {
        std::ostringstream chg;
        chg << (c.relChange >= 0 ? "+" : "")
            << fmt(c.relChange * 100.0, 2) << "%";
        t.row({c.metric, fmt(c.base, 4), fmt(c.cur, 4), chg.str(),
               (c.higherIsBetter ? "-" : "+") + fmt(c.allowed, 4),
               c.regressed ? "REGRESSED" : "ok"});
    }
    t.print(os);
    for (const std::string &m : report.missingInBase)
        os << "note: '" << m << "' matched a rule but is missing from "
           << "the base run\n";
    os << "\n"
       << report.checks.size() << " checks, " << report.regressions
       << " regressions\n";
}

void
writeBenchReport(std::ostream &os, const RunData &base,
                 const RunData &cur, const DiffReport &report)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-bench-report-v1");
    w.key("base").beginObject();
    w.kv("path", base.path);
    w.kv("app", base.app);
    w.kv("config", base.config);
    w.endObject();
    w.key("new").beginObject();
    w.kv("path", cur.path);
    w.kv("app", cur.app);
    w.kv("config", cur.config);
    w.endObject();
    w.key("checks").beginArray();
    for (const CheckResult &c : report.checks) {
        w.beginObject();
        w.kv("metric", c.metric);
        w.kv("rule", c.glob);
        w.kv("direction", c.higherIsBetter ? "higher" : "lower");
        w.kv("base", c.base);
        w.kv("new", c.cur);
        w.kv("rel_change", c.relChange);
        w.kv("allowed", c.allowed);
        w.kv("regressed", c.regressed);
        w.endObject();
    }
    w.endArray();
    w.key("missing_in_base").beginArray();
    for (const std::string &m : report.missingInBase)
        w.value(m);
    w.endArray();
    w.kv("regressions", static_cast<std::uint64_t>(report.regressions));
    w.kv("passed", report.regressions == 0);
    w.endObject();
    os << '\n';
}

// --------------------------------------------------------------------
// Single-run rendering
// --------------------------------------------------------------------

namespace
{

/** The scalar at @p path of @p snap, or 0 (histograms included). */
double
scalarOr0(const StatSnapshot &snap, const std::string &path)
{
    const auto it = snap.find(path);
    return it != snap.end() && it->second.kind != StatKind::Histogram
               ? it->second.num
               : 0.0;
}

} // namespace

void
renderRun(std::ostream &os, const RunData &run, std::size_t maxWindows)
{
    os << "run: " << run.path << "\n";
    os << "mode " << run.mode << ", app " << run.app << ", config "
       << run.config << "\n\n";

    TextTable obj;
    obj.header({"objective", "value"});
    obj.row({"ipc", fmt(scalarOr0(run.final, "sim.objective.ipc"), 4)});
    obj.row({"lifetime_years",
             fmt(scalarOr0(run.final, "sim.objective.lifetime_years"),
                 2)});
    obj.row({"avg_read_latency_ns",
             fmt(scalarOr0(run.final, "memctrl.avg_read_latency_ns"),
                 1)});
    obj.print(os);
    os << "\n";

    // Latency attribution: one row per lat.<stage>.ns histogram.
    TextTable lat;
    lat.header({"stage", "spans", "mean_ns", "p50_ns", "p90_ns",
                "p99_ns"});
    for (const auto &[path, h] : run.final) {
        if (h.kind != StatKind::Histogram || path.rfind("lat.", 0) != 0 ||
            h.count == 0)
            continue;
        const std::string stage =
            path.substr(4, path.size() - 4 - 3); // strip lat. / .ns
        const auto pct = [&h](double p) {
            return fmt(logHistogramPercentile(h.buckets, h.count, p), 1);
        };
        lat.row({stage, std::to_string(h.count),
                 fmt(h.num / static_cast<double>(h.count), 1), pct(0.50),
                 pct(0.90), pct(0.99)});
    }
    if (lat.rows()) {
        os << "latency attribution (sampled spans):\n";
        lat.print(os);
        os << "\n";
    }

    if (!run.windows.empty()) {
        TextTable win;
        win.header({"inst", "d_instructions", "d_reads", "d_writes",
                    "avg_read_lat_ns"});
        const std::size_t n = run.windows.size();
        const std::size_t from =
            maxWindows && n > maxWindows ? n - maxWindows : 0;
        for (std::size_t i = from; i < n; ++i) {
            const auto &[inst, delta] = run.windows[i];
            const auto get = [&delta](const char *k) {
                return scalarOr0(delta, k);
            };
            win.row({std::to_string(inst),
                     fmt(get("sim.instructions"), 0),
                     fmt(get("memctrl.reads_completed"), 0),
                     fmt(get("memctrl.writes_completed"), 0),
                     fmt(get("memctrl.avg_read_latency_ns"), 1)});
        }
        os << "windows (" << (n - from) << " of " << n << "):\n";
        win.print(os);
        os << "\n";
    }

    if (!run.eventCounts.empty()) {
        TextTable ev;
        ev.header({"event", "count"});
        for (const auto &[name, count] : run.eventCounts)
            ev.row({name, fmt(count, 0)});
        os << "events (" << fmt(run.eventsRecorded, 0) << " recorded, "
           << fmt(run.eventsDropped, 0) << " dropped):\n";
        ev.print(os);
    }
}

void
renderSpans(std::ostream &os, const SpanSet &spans)
{
    std::map<std::string, std::pair<std::uint64_t, double>> byStage;
    std::map<int, std::pair<std::uint64_t, double>> byLevel;
    for (const SpanRow &r : spans.spans) {
        auto &lvl = byLevel[r.hitLevel];
        ++lvl.first;
        lvl.second += r.totalNs;
        for (const auto &[stage, ns] : r.stageNs) {
            auto &st = byStage[stage];
            ++st.first;
            st.second += ns;
        }
    }
    os << "spans: " << spans.spans.size() << "\n";
    TextTable lvl;
    lvl.header({"hit_level", "spans", "mean_total_ns"});
    for (const auto &[level, agg] : byLevel) {
        const char *name = level == 0   ? "memory"
                           : level == 1 ? "l1"
                           : level == 2 ? "l2"
                                        : "llc";
        lvl.row({name, std::to_string(agg.first),
                 fmt(agg.second / static_cast<double>(agg.first), 1)});
    }
    lvl.print(os);
    os << "\n";
    TextTable st;
    st.header({"stage", "spans", "mean_ns"});
    for (const auto &[stage, agg] : byStage)
        st.row({stage, std::to_string(agg.first),
                fmt(agg.second / static_cast<double>(agg.first), 1)});
    st.print(os);
}

namespace
{

/** Nearest-rank percentile over raw samples (exact, no buckets). */
double
samplePercentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p * static_cast<double>(values.size()));
    const std::size_t i = rank <= 1.0
        ? 0
        : std::min(values.size() - 1,
                   static_cast<std::size_t>(rank) - 1);
    return values[i];
}

/** "name w, name w, ..." of the top-k attribution weights. */
std::string
topFeatures(const std::vector<double> &weights,
            const std::vector<std::string> &names, std::size_t k)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < weights.size(); ++i)
        if (weights[i] != 0.0)
            idx.push_back(i);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) {
                  if (weights[a] != weights[b])
                      return weights[a] > weights[b];
                  return a < b;
              });
    if (idx.size() > k)
        idx.resize(k);
    std::ostringstream ss;
    for (std::size_t j = 0; j < idx.size(); ++j) {
        const std::size_t i = idx[j];
        ss << (j ? ", " : "")
           << (i < names.size() ? names[i]
                                : "f" + std::to_string(i))
           << " " << fmt(weights[i], 3);
    }
    return idx.empty() ? "(none)" : ss.str();
}

} // namespace

void
renderExplain(std::ostream &os, const std::vector<ProvenanceRecord> &prov,
              const std::vector<std::string> &featureNames,
              std::size_t maxDecisions)
{
    std::size_t closed = 0;
    for (const ProvenanceRecord &r : prov)
        closed += r.closed ? 1 : 0;
    os << "decisions: " << prov.size() << " (" << closed
       << " closed)\n\n";

    const std::size_t n = prov.size();
    const std::size_t from =
        maxDecisions && n > maxDecisions ? n - maxDecisions : 0;
    if (from > 0)
        os << "(showing the last " << (n - from) << " of " << n
           << " decisions)\n\n";
    for (std::size_t i = from; i < n; ++i) {
        const ProvenanceRecord &r = prov[i];
        os << "decision " << r.seq << " @ inst " << r.inst
           << " (phase " << r.phase << ", model " << r.model << ")\n";
        os << "  config " << r.configKey
           << (r.chosen >= 0 ? " (#" + std::to_string(r.chosen) + ")"
                             : " (baseline fallback)")
           << ", " << r.sampledConfigs
           << " sampled, constraints: lifetime >= "
           << fmt(r.minLifetimeYears, 1) << "y x "
           << fmt(r.safetyMargin, 2) << ", ipc >= "
           << fmt(r.ipcFraction, 2) << " of best\n";
        TextTable t;
        t.header({"objective", "predicted", "sigma", "realized",
                  "err"});
        for (std::size_t k = 0; k < numProvenanceObjectives; ++k) {
            const ProvenanceObjective &o = r.objectives[k];
            t.row({provenanceObjectiveName(k), fmt(o.predicted, 4),
                   fmt(o.uncertainty, 4),
                   r.closed ? fmt(o.realized, 4) : "-",
                   o.errorValid ? fmt(o.relError * 100.0, 2) + "%" : "-"});
        }
        t.print(os);
        if (r.closed)
            os << "  regret " << fmt(r.regret, 4) << " (cumulative "
               << fmt(r.cumRegret, 4) << ") vs best sampled ipc "
               << fmt(r.bestSampledIpc, 4) << "\n";
        for (const ProvenanceCandidate &c : r.runnerUps)
            os << "  runner-up #" << c.config << ": ipc "
               << fmt(c.ipc, 4) << ", lifetime "
               << fmt(c.lifetimeYears, 2) << "y, energy "
               << fmt(c.energyJ, 5) << (c.feasible ? "" : " (infeasible)")
               << "\n";
        for (std::size_t k = 0; k < numProvenanceObjectives; ++k)
            if (!r.attribution[k].empty())
                os << "  top features (" << provenanceObjectiveName(k)
                   << "): "
                   << topFeatures(r.attribution[k], featureNames, 5)
                   << "\n";
        os << "\n";
    }

    // Calibration summary: exact percentiles over the raw errors.
    TextTable cal;
    cal.header({"objective", "closed", "valid", "mean_err", "p50_err",
                "p90_err"});
    for (std::size_t k = 0; k < numProvenanceObjectives && n > 0; ++k) {
        std::vector<double> errs;
        double sum = 0.0;
        for (const ProvenanceRecord &r : prov) {
            const ProvenanceObjective &o = r.objectives[k];
            if (r.closed && o.errorValid) {
                errs.push_back(o.relError);
                sum += o.relError;
            }
        }
        const double mean =
            errs.empty() ? 0.0
                         : sum / static_cast<double>(errs.size());
        const std::size_t valid = errs.size();
        const double p90 = samplePercentile(errs, 0.90);
        const double p50 = samplePercentile(errs, 0.50);
        cal.row({provenanceObjectiveName(k), std::to_string(closed),
                 std::to_string(valid), fmt(mean * 100.0, 2) + "%",
                 fmt(p50 * 100.0, 2) + "%",
                 fmt(p90 * 100.0, 2) + "%"});
    }
    os << "calibration (relative error, closed decisions):\n";
    cal.print(os);
}

void
renderProfile(std::ostream &os,
              const std::vector<HostProfiler::Stage> &stages)
{
    double total = 0.0;
    bool hasCpu = false;
    for (const HostProfiler::Stage &s : stages) {
        total += s.wallSeconds;
        hasCpu = hasCpu || s.cpuSeconds > 0.0;
    }
    TextTable t;
    if (hasCpu)
        t.header({"stage", "seconds", "cpu", "calls", "share"});
    else
        t.header({"stage", "seconds", "calls", "share"});
    for (const HostProfiler::Stage &s : stages) {
        const std::string share =
            fmt(total > 0 ? s.wallSeconds / total * 100.0 : 0.0, 1) + "%";
        if (hasCpu)
            t.row({s.name, fmt(s.wallSeconds, 3), fmt(s.cpuSeconds, 3),
                   std::to_string(s.calls), share});
        else
            t.row({s.name, fmt(s.wallSeconds, 3), std::to_string(s.calls),
                   share});
    }
    t.print(os);
}

void
renderHostSummary(std::ostream &os, const RunData &run,
                  const std::vector<HostProfiler::Stage> &stages)
{
    const auto scalar = [&run](const char *name) {
        return scalarOr0(run.final, name);
    };
    os << "host telemetry: " << run.path << "\n";
    if (!run.mode.empty())
        os << "mode " << run.mode << ", app " << run.app << ", config "
           << run.config << "\n";
    os << "  sim.mips                 " << fmt(scalar("sim.mips"), 2)
       << "\n";
    os << "  wall seconds             "
       << fmt(scalar("sim.host.wall_seconds"), 3) << "\n";
    os << "  cpu seconds              "
       << fmt(scalar("sim.host.cpu_seconds"), 3) << " (util "
       << fmt(scalar("sim.host.cpu_util"), 2) << ")\n";
    os << "  rss high-water kB        "
       << fmt(scalar("sim.host.rss_hwm_kb"), 0) << "\n";
    os << "  instructions             "
       << fmt(scalar("sim.host.instructions"), 0) << "\n";
    if (!stages.empty()) {
        os << "host attribution:\n";
        renderProfile(os, stages);
    }
}

} // namespace mct::report
