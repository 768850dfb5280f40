#include "common/alerts.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

const char *
toString(AlertCondition cond)
{
    switch (cond) {
      case AlertCondition::Above:
        return "above";
      case AlertCondition::Below:
        return "below";
      case AlertCondition::EwmaDev:
        return "ewma-dev";
      case AlertCondition::Stuck:
        return "stuck";
      case AlertCondition::Nonfinite:
        return "nonfinite";
    }
    return "unknown";
}

const char *
toString(AlertSeverity sev)
{
    switch (sev) {
      case AlertSeverity::Info:
        return "info";
      case AlertSeverity::Warn:
        return "warn";
      case AlertSeverity::Critical:
        return "critical";
    }
    return "unknown";
}

// --------------------------------------------------------------------
// alerts.txt parsing
// --------------------------------------------------------------------

namespace
{

std::string
trimWs(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return {};
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split a trimmed line into its first token and the trimmed rest. */
void
splitToken(const std::string &line, std::string &tok,
           std::string &rest)
{
    const std::size_t sp = line.find_first_of(" \t");
    if (sp == std::string::npos) {
        tok = line;
        rest.clear();
        return;
    }
    tok = line.substr(0, sp);
    rest = trimWs(line.substr(sp + 1));
}

bool
isSingleToken(const std::string &s)
{
    return !s.empty() && s.find_first_of(" \t") == std::string::npos;
}

bool
conditionNeedsThreshold(AlertCondition c)
{
    return c == AlertCondition::Above || c == AlertCondition::Below ||
           c == AlertCondition::EwmaDev;
}

} // namespace

bool
parseAlerts(const std::string &text, std::vector<AlertRule> &out,
            std::string &err)
{
    out.clear();
    std::vector<AlertRule> rules;
    bool haveMetric = false, haveCond = false, haveThreshold = false;
    int ruleLine = 0;

    const auto finishRule = [&]() -> bool {
        if (rules.empty())
            return true;
        const AlertRule &r = rules.back();
        std::ostringstream os;
        if (!haveMetric)
            os << "alert '" << r.name << "' (line " << ruleLine
               << ") has no metric";
        else if (!haveCond)
            os << "alert '" << r.name << "' (line " << ruleLine
               << ") has no condition";
        else if (conditionNeedsThreshold(r.cond) && !haveThreshold)
            os << "alert '" << r.name << "' (line " << ruleLine
               << "): condition '" << toString(r.cond)
               << "' requires a threshold";
        else if (!conditionNeedsThreshold(r.cond) && haveThreshold)
            os << "alert '" << r.name << "' (line " << ruleLine
               << "): condition '" << toString(r.cond)
               << "' takes no threshold";
        else
            return true;
        err = os.str();
        return false;
    };

    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(is, raw)) {
        ++lineNo;
        const std::size_t hash = raw.find('#');
        const std::string line =
            trimWs(hash == std::string::npos ? raw
                                             : raw.substr(0, hash));
        if (line.empty())
            continue;
        std::string tok, rest;
        splitToken(line, tok, rest);
        std::ostringstream os;
        if (tok == "alert") {
            if (!finishRule())
                return false;
            if (!isSingleToken(rest)) {
                os << "line " << lineNo
                   << ": 'alert' needs a single-token name";
                err = os.str();
                return false;
            }
            for (const AlertRule &r : rules) {
                if (r.name == rest) {
                    os << "line " << lineNo << ": duplicate alert '"
                       << rest << "'";
                    err = os.str();
                    return false;
                }
            }
            rules.emplace_back();
            rules.back().name = rest;
            ruleLine = lineNo;
            haveMetric = haveCond = haveThreshold = false;
            continue;
        }
        if (rules.empty()) {
            os << "line " << lineNo << ": '" << tok
               << "' outside an alert block";
            err = os.str();
            return false;
        }
        AlertRule &r = rules.back();
        if (tok == "metric") {
            if (!isSingleToken(rest)) {
                os << "line " << lineNo
                   << ": 'metric' needs a single glob";
                err = os.str();
                return false;
            }
            r.glob = rest;
            haveMetric = true;
        } else if (tok == "condition") {
            if (rest == "above")
                r.cond = AlertCondition::Above;
            else if (rest == "below")
                r.cond = AlertCondition::Below;
            else if (rest == "ewma-dev")
                r.cond = AlertCondition::EwmaDev;
            else if (rest == "stuck")
                r.cond = AlertCondition::Stuck;
            else if (rest == "nonfinite")
                r.cond = AlertCondition::Nonfinite;
            else {
                os << "line " << lineNo << ": unknown condition '"
                   << rest << "'";
                err = os.str();
                return false;
            }
            haveCond = true;
        } else if (tok == "threshold") {
            char *end = nullptr;
            const double v = std::strtod(rest.c_str(), &end);
            if (rest.empty() || end != rest.c_str() + rest.size() ||
                !std::isfinite(v)) {
                os << "line " << lineNo << ": bad threshold '" << rest
                   << "'";
                err = os.str();
                return false;
            }
            r.threshold = v;
            haveThreshold = true;
        } else if (tok == "windows") {
            char *end = nullptr;
            const long v = std::strtol(rest.c_str(), &end, 10);
            if (rest.empty() || end != rest.c_str() + rest.size() ||
                v < 1) {
                os << "line " << lineNo
                   << ": 'windows' needs an integer >= 1, got '"
                   << rest << "'";
                err = os.str();
                return false;
            }
            r.windows = static_cast<std::uint32_t>(v);
        } else if (tok == "severity") {
            if (rest == "info")
                r.severity = AlertSeverity::Info;
            else if (rest == "warn")
                r.severity = AlertSeverity::Warn;
            else if (rest == "critical")
                r.severity = AlertSeverity::Critical;
            else {
                os << "line " << lineNo << ": unknown severity '"
                   << rest << "'";
                err = os.str();
                return false;
            }
        } else {
            os << "line " << lineNo << ": unknown keyword '" << tok
               << "'";
            err = os.str();
            return false;
        }
    }
    if (!finishRule())
        return false;
    out = std::move(rules);
    return true;
}

bool
loadAlerts(const std::string &path, std::vector<AlertRule> &out,
           std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open alerts file '" + path + "'";
        return false;
    }
    std::ostringstream os;
    os << is.rdbuf();
    return parseAlerts(os.str(), out, err);
}

std::string
canonicalAlertRules(const std::vector<AlertRule> &rules)
{
    std::ostringstream os;
    os.precision(17);
    for (const AlertRule &r : rules) {
        os << r.name << '|' << r.glob << '|' << toString(r.cond) << '|'
           << r.threshold << '|' << r.windows << '|'
           << toString(r.severity) << ';';
    }
    return os.str();
}

// --------------------------------------------------------------------
// AlertEngine
// --------------------------------------------------------------------

void
AlertEngine::enable(std::vector<AlertRule> rules,
                    std::size_t logCapacity)
{
    log_.enable(logCapacity);
    rules_ = std::move(rules);
    insts_.clear();
    windowIdx_ = 0;
    nRaised_ = 0;
    nCleared_ = 0;
    raisedBySev_.fill(0);
    bound_ = false;
}

void
AlertEngine::registerStats(StatRegistry &reg)
{
    cellRaised_ = &reg.addCounterCell(
        "alert.raised", "alert raise events emitted by the engine");
    cellCleared_ = &reg.addCounterCell(
        "alert.cleared", "alert clear events emitted by the engine");
    cellBySev_[0] = &reg.addCounterCell(
        "alert.count.info", "info-severity alerts raised");
    cellBySev_[1] = &reg.addCounterCell(
        "alert.count.warn", "warn-severity alerts raised");
    cellBySev_[2] = &reg.addCounterCell(
        "alert.count.critical",
        "critical-severity alerts raised (escalated to the MCT "
        "health ladder)");
    reg.addGauge(
        "alert.active",
        [this] { return static_cast<double>(active()); },
        "alerts currently raised");
    reg.addGauge(
        "alert.rules",
        [this] { return static_cast<double>(rules_.size()); },
        "armed alert rules");
    // Host-scoped: evaluation is deterministic, but the counters must
    // never perturb the byte-identical Sim snapshot surfaces, and an
    // armed run's --stats-json must match a disarmed run's.
    for (const char *path :
         {"alert.raised", "alert.cleared", "alert.count.info",
          "alert.count.warn", "alert.count.critical", "alert.active",
          "alert.rules"})
        reg.markHost(path);
}

bool
AlertEngine::holds(const AlertRule &r, const Inst &in, double v) const
{
    switch (r.cond) {
      case AlertCondition::Above:
        return v > r.threshold;
      case AlertCondition::Below:
        return v < r.threshold;
      case AlertCondition::EwmaDev:
        // Relative deviation from the pre-update EWMA; never fires on
        // the first window (no history to deviate from).
        return in.seen > 0 &&
               std::abs(v - in.ewma) >
                   r.threshold * std::max(std::abs(in.ewma),
                                          ewmaDevEps);
      case AlertCondition::Stuck:
        return in.seen > 0 && v == in.prev;
      case AlertCondition::Nonfinite:
        return !std::isfinite(v);
    }
    return false;
}

void
AlertEngine::bind(const StatSnapshot &delta)
{
    // First matching rule wins per metric, mirroring thresholds.txt;
    // snapshot maps are sorted, so binding order is deterministic.
    for (const auto &[path, v] : delta) {
        for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
            if (!statGlobMatch(rules_[ri].glob, path))
                continue;
            Inst in;
            in.rule = static_cast<std::uint32_t>(ri);
            in.metric = path;
            insts_.push_back(std::move(in));
            break;
        }
    }
    bound_ = true;
}

void
AlertEngine::observe(InstCount inst, const StatSnapshot &delta)
{
    if (!enabled())
        return;
    if (!bound_)
        bind(delta);
    for (Inst &in : insts_) {
        const AlertRule &r = rules_[in.rule];
        const auto it = delta.find(in.metric);
        const double v = it != delta.end() ? it->second.num : 0.0;
        const bool h = holds(r, in, v);
        in.streak = h ? in.streak + 1 : 0;
        if (!in.isActive && in.streak >= r.windows) {
            in.isActive = true;
            in.activeFor = 1;
            ++nRaised_;
            ++raisedBySev_[static_cast<std::size_t>(r.severity)];
            if (cellRaised_)
                ++*cellRaised_;
            if (cellBySev_[static_cast<std::size_t>(r.severity)])
                ++*cellBySev_[static_cast<std::size_t>(r.severity)];
            log_.push() = {true, in.rule, windowIdx_, inst, v, 0,
                           in.metric};
            if (trace_)
                trace_->record(
                    TraceEventType::AlertRaised,
                    static_cast<double>(in.rule),
                    static_cast<double>(r.severity), v);
            if (r.severity == AlertSeverity::Critical && escalate_)
                escalate_(r, in.metric);
        } else if (in.isActive) {
            if (!h) {
                ++nCleared_;
                if (cellCleared_)
                    ++*cellCleared_;
                log_.push() = {false, in.rule, windowIdx_, inst, v,
                               in.activeFor, in.metric};
                if (trace_)
                    trace_->record(
                        TraceEventType::AlertCleared,
                        static_cast<double>(in.rule),
                        static_cast<double>(r.severity),
                        static_cast<double>(in.activeFor));
                in.isActive = false;
                in.activeFor = 0;
            } else {
                ++in.activeFor;
            }
        }
        if (in.seen == 0)
            in.ewma = v;
        else
            in.ewma = MetricTimeline::ewmaAlpha * v +
                      (1.0 - MetricTimeline::ewmaAlpha) * in.ewma;
        in.prev = v;
        ++in.seen;
    }
    ++windowIdx_;
}

std::size_t
AlertEngine::active() const
{
    std::size_t n = 0;
    for (const Inst &in : insts_)
        n += in.isActive ? 1 : 0;
    return n;
}

std::uint64_t
AlertEngine::raisedBySeverity(AlertSeverity sev) const
{
    return raisedBySev_[static_cast<std::size_t>(sev)];
}

void
AlertEngine::appendFinal(std::map<std::string, double> &fin) const
{
    fin["alert.rules"] = static_cast<double>(rules_.size());
    fin["alert.instances"] = static_cast<double>(insts_.size());
    fin["alert.windows"] = static_cast<double>(windowIdx_);
    fin["alert.raised"] = static_cast<double>(nRaised_);
    fin["alert.cleared"] = static_cast<double>(nCleared_);
    fin["alert.active"] = static_cast<double>(active());
    fin["alert.count.info"] = static_cast<double>(raisedBySev_[0]);
    fin["alert.count.warn"] = static_cast<double>(raisedBySev_[1]);
    fin["alert.count.critical"] =
        static_cast<double>(raisedBySev_[2]);
    fin["alert.log_dropped"] = static_cast<double>(log_.dropped());
}

void
AlertEngine::writeJsonl(std::ostream &os) const
{
    JsonWriter w(os);
    log_.forEach([this, &w, &os](const LogEntry &e) {
        const AlertRule &r = rules_[e.rule];
        w.beginObject();
        w.kv("ev", e.raisedEv ? "alert_raised" : "alert_cleared");
        w.kv("window", e.window);
        w.kv("inst", static_cast<std::uint64_t>(e.inst));
        w.kv("rule", r.name);
        w.kv("metric", e.metric);
        w.kv("condition", toString(r.cond));
        w.kv("severity", toString(r.severity));
        w.kv("value", e.value);
        if (!e.raisedEv)
            w.kv("windows_active",
                 static_cast<std::uint64_t>(e.windowsActive));
        w.endObject();
        os << '\n';
    });
}

template <class Ar>
void
AlertEngine::io(Ar &ar)
{
    // The event trace, escalation hook and registry cells are wiring,
    // re-attached by enable() and the harness after reconstruction.
    ar.check(log_.enabled(),
             "checkpoint AlertEngine configuration mismatch");
    ar.check(rules_.size(), "checkpoint AlertEngine configuration mismatch");
    ar.check(log_.capacity(),
             "checkpoint AlertEngine configuration mismatch");
    ar.flag(bound_);
    ar.u64(windowIdx_, nRaised_, nCleared_);
    for (std::uint64_t &n : raisedBySev_)
        ar.u64(n);
    ar.seq(insts_, [&ar](Inst &in) {
        ar.u32(in.rule);
        ar.str(in.metric);
        ar.f64(in.prev, in.ewma);
        ar.u64(in.seen);
        ar.u32(in.streak, in.activeFor);
        ar.flag(in.isActive);
    });
    log_.ioCursor(ar);
    log_.ioSlots([&ar](LogEntry &e) {
        ar.flag(e.raisedEv);
        ar.u32(e.rule);
        ar.u64(e.window, e.inst);
        ar.f64(e.value);
        ar.u32(e.windowsActive);
        ar.str(e.metric);
    });
}

template void AlertEngine::io(Serializer &);
template void AlertEngine::io(Deserializer &);

} // namespace mct
