/**
 * @file
 * Online alerting over windowed metric deltas.
 *
 * An AlertEngine is driven by a declarative rule set (alerts.txt,
 * same data-not-code grammar family as the report tool's
 * thresholds.txt): each rule names a metric glob, a condition
 * (above / below / ewma-dev / stuck / nonfinite), how many
 * consecutive windows the condition must hold, and a severity. At
 * every --stats-every boundary the driver hands over the window's
 * delta snapshot (StatScope::Sim only, so evaluation is deterministic
 * across identically-seeded runs); rules bind lazily to the metrics
 * present in the first window, first matching rule wins per metric.
 *
 * A raise emits an AlertRaised trace event, bumps the alert.* stat
 * cells, appends to the alert log (alerts.jsonl), and — for critical
 * severity — invokes the attached escalation hook so the MCT runtime
 * can climb its health-check ladder in response, closing the
 * observe -> react loop. Clearing mirrors with AlertCleared.
 *
 * Disabled (the default) observe() is a single branch and nothing is
 * registered, so unarmed runs stay byte-identical.
 */

#ifndef MCT_COMMON_ALERTS_HH
#define MCT_COMMON_ALERTS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/instrument.hh"
#include "common/types.hh"

namespace mct
{

/** When an alert rule's condition holds for a window. */
enum class AlertCondition : std::uint8_t
{
    Above,     ///< window value > threshold
    Below,     ///< window value < threshold
    EwmaDev,   ///< |value - ewma| > threshold * max(|ewma|, eps)
    Stuck,     ///< value exactly equal to the previous window's
    Nonfinite, ///< value is NaN or infinite
};

/** How loudly a firing rule escalates. */
enum class AlertSeverity : std::uint8_t
{
    Info,
    Warn,
    Critical, ///< feeds the MCT health-check escalation ladder
};

/** Stable lowercase name (alerts.txt keyword and JSONL field). */
const char *toString(AlertCondition cond);
const char *toString(AlertSeverity sev);

/** One parsed alerts.txt rule. */
struct AlertRule
{
    std::string name;   ///< rule identity (trace arg, JSONL, reports)
    std::string glob;   ///< metric selector ('*' crosses dots)
    AlertCondition cond = AlertCondition::Above;
    double threshold = 0.0;    ///< above/below/ewma-dev only
    std::uint32_t windows = 1; ///< consecutive windows to raise
    AlertSeverity severity = AlertSeverity::Warn;
};

/**
 * Parse an alerts.txt rule set. Grammar (first-match-wins per metric,
 * like thresholds.txt):
 *
 *   alert <name>            starts a rule
 *     metric <glob>         metric selector (required)
 *     condition <cond>      above|below|ewma-dev|stuck|nonfinite
 *                           (required)
 *     threshold <v>         required for above/below/ewma-dev,
 *                           rejected for stuck/nonfinite
 *     windows <n>           consecutive windows to raise (default 1)
 *     severity <sev>        info|warn|critical (default warn)
 *
 * '#' starts a comment; blank lines separate nothing. Any malformed
 * line is an error. Returns false with @p err set on failure.
 */
[[nodiscard]] bool parseAlerts(const std::string &text,
                               std::vector<AlertRule> &out,
                               std::string &err);

/** parseAlerts over a file's contents. */
[[nodiscard]] bool loadAlerts(const std::string &path,
                              std::vector<AlertRule> &out,
                              std::string &err);

/**
 * Canonical one-line-per-rule rendering of a rule set. Fed into the
 * run fingerprint so a resumed run is only accepted against the
 * identical alert configuration.
 */
std::string canonicalAlertRules(const std::vector<AlertRule> &rules);

/**
 * Evaluates alert rules online against windowed metric deltas. Rules
 * bind to concrete metrics at the first observe() (first matching
 * rule per metric wins); each bound (rule, metric) instance keeps a
 * consecutive-hold streak, raising once the streak reaches the
 * rule's window count and clearing the first window the condition
 * stops holding. Raise/clear events land in a capped log ring (for
 * alerts.jsonl) and in the attached EventTrace; the alert.* stat
 * cells live in the registry (host-scoped, so deterministic
 * snapshots never see them) and ride its owned-state checkpointing.
 *
 * The evaluation state serializes through the checkpoint subsystem;
 * the rule set and log capacity are enable()-time configuration
 * pinned by the run fingerprint.
 */
class AlertEngine
{
  public:
    /** ewma-dev guard against a ~0 EWMA denominator. */
    static constexpr double ewmaDevEps = 1e-9;

    AlertEngine() = default;

    /** Arm with @p rules; raise/clear log ring of @p logCapacity. */
    void enable(std::vector<AlertRule> rules,
                std::size_t logCapacity = 4096);

    /** True when armed. */
    bool enabled() const { return log_.enabled(); }

    /** The armed rule set. */
    const std::vector<AlertRule> &rules() const { return rules_; }

    /** Echo AlertRaised/AlertCleared events into @p t. */
    void attachTrace(EventTrace *t) { trace_ = t; }

    /** Invoked on every critical raise (rule, metric). */
    using EscalationFn =
        std::function<void(const AlertRule &, const std::string &)>;

    /** Attach the critical-severity escalation hook. */
    void setEscalation(EscalationFn fn) { escalate_ = std::move(fn); }

    /**
     * Register the alert.* stat cells and gauges, host-scoped so the
     * deterministic (StatScope::Sim) surfaces stay byte-identical
     * while armed. Call once after enable().
     */
    void registerStats(StatRegistry &reg);

    /** Evaluate one window (no-op when disarmed). */
    void observe(InstCount inst, const StatSnapshot &delta);

    /** Bound (rule, metric) instances (0 before the first window). */
    std::size_t instances() const { return insts_.size(); }

    /** Alerts currently raised. */
    std::size_t active() const;

    /** Raise events ever emitted. */
    std::uint64_t raised() const { return nRaised_; }

    /** Clear events ever emitted. */
    std::uint64_t cleared() const { return nCleared_; }

    /** Raise count of one severity. */
    std::uint64_t raisedBySeverity(AlertSeverity sev) const;

    /** Windows observed. */
    std::uint64_t windowsSeen() const { return windowIdx_; }

    /** One raise/clear log entry (alerts.jsonl line). */
    struct LogEntry
    {
        bool raisedEv = true; ///< raise (true) or clear (false)
        std::uint32_t rule = 0;
        std::uint64_t window = 0; ///< 0-based window index
        InstCount inst = 0;
        double value = 0.0;
        std::uint32_t windowsActive = 0; ///< clear events only
        std::string metric;
    };

    /** The raise/clear log (alerts.jsonl), oldest entry first. */
    const RecordRing<LogEntry> &log() const { return log_; }

    /**
     * Append the alert.* final scalars (counts by severity, raise /
     * clear / active totals) into @p fin — the driver folds these
     * into the timeline document's "final" object for diff gating.
     */
    void appendFinal(std::map<std::string, double> &fin) const;

    /** One JSON object per held log entry (alerts.jsonl). */
    void writeJsonl(std::ostream &os) const;

    /** Checkpoint bindings, streaks, counters, and the log ring; the
     *  rule count and log capacity must match the current enable()
     *  configuration. */
    template <class Ar>
    void io(Ar &ar);

  private:
    /** One bound (rule, metric) evaluation instance. */
    struct Inst
    {
        std::uint32_t rule = 0;
        std::string metric;
        double prev = 0.0;   ///< previous window's value
        double ewma = 0.0;
        std::uint64_t seen = 0;    ///< windows evaluated
        std::uint32_t streak = 0;  ///< consecutive holds
        std::uint32_t activeFor = 0; ///< windows since raise (0 = clear)
        bool isActive = false;
    };

    std::vector<AlertRule> rules_;
    std::vector<Inst> insts_;
    RecordRing<LogEntry> log_;
    std::uint64_t windowIdx_ = 0;
    std::uint64_t nRaised_ = 0;
    std::uint64_t nCleared_ = 0;
    std::array<std::uint64_t, 3> raisedBySev_{};
    bool bound_ = false;
    EventTrace *trace_ = nullptr;
    EscalationFn escalate_;
    std::uint64_t *cellRaised_ = nullptr;   ///< registry-owned
    std::uint64_t *cellCleared_ = nullptr;  ///< registry-owned
    std::array<std::uint64_t *, 3> cellBySev_{}; ///< registry-owned

    bool holds(const AlertRule &r, const Inst &in, double v) const;
    void bind(const StatSnapshot &delta);
};

} // namespace mct

#endif // MCT_COMMON_ALERTS_HH
