/**
 * @file
 * AlertEngine unit tests: alerts.txt grammar, condition math against
 * scripted window series, streak raise/clear semantics, the log ring,
 * escalation wiring, and checkpoint round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/alerts.hh"
#include "common/instrument.hh"
#include "common/serialize.hh"

namespace mct
{
namespace
{

// --------------------------------------------------------------------
// Grammar
// --------------------------------------------------------------------

std::vector<AlertRule>
mustParse(const std::string &text)
{
    std::vector<AlertRule> rules;
    std::string err;
    EXPECT_TRUE(parseAlerts(text, rules, err)) << err;
    return rules;
}

std::string
mustFail(const std::string &text)
{
    std::vector<AlertRule> rules;
    std::string err;
    EXPECT_FALSE(parseAlerts(text, rules, err));
    EXPECT_FALSE(err.empty());
    return err;
}

TEST(AlertGrammar, ParsesFullRule)
{
    const auto rules = mustParse("# comment\n"
                                 "alert drift\n"
                                 "  metric memctrl.avg_read_latency_ns\n"
                                 "  condition above   # trailing\n"
                                 "  threshold 420\n"
                                 "  windows 2\n"
                                 "  severity critical\n");
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0].name, "drift");
    EXPECT_EQ(rules[0].glob, "memctrl.avg_read_latency_ns");
    EXPECT_EQ(rules[0].cond, AlertCondition::Above);
    EXPECT_DOUBLE_EQ(rules[0].threshold, 420.0);
    EXPECT_EQ(rules[0].windows, 2u);
    EXPECT_EQ(rules[0].severity, AlertSeverity::Critical);
}

TEST(AlertGrammar, DefaultsAreOneWindowWarn)
{
    const auto rules = mustParse("alert a\n"
                                 "  metric sim.*\n"
                                 "  condition stuck\n");
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0].windows, 1u);
    EXPECT_EQ(rules[0].severity, AlertSeverity::Warn);
}

TEST(AlertGrammar, ParsesEveryConditionAndSeverity)
{
    const auto rules = mustParse(
        "alert a\n metric m\n condition above\n threshold 1\n"
        " severity info\n"
        "alert b\n metric m\n condition below\n threshold 1\n"
        " severity warn\n"
        "alert c\n metric m\n condition ewma-dev\n threshold 0.5\n"
        " severity critical\n"
        "alert d\n metric m\n condition stuck\n"
        "alert e\n metric m\n condition nonfinite\n");
    ASSERT_EQ(rules.size(), 5u);
    EXPECT_EQ(rules[0].cond, AlertCondition::Above);
    EXPECT_EQ(rules[0].severity, AlertSeverity::Info);
    EXPECT_EQ(rules[1].cond, AlertCondition::Below);
    EXPECT_EQ(rules[2].cond, AlertCondition::EwmaDev);
    EXPECT_EQ(rules[2].severity, AlertSeverity::Critical);
    EXPECT_EQ(rules[3].cond, AlertCondition::Stuck);
    EXPECT_EQ(rules[4].cond, AlertCondition::Nonfinite);
}

TEST(AlertGrammar, RejectsMalformedInputWithLineNumbers)
{
    // Keyword outside any alert block.
    EXPECT_NE(mustFail("metric sim.*\n").find("line 1"),
              std::string::npos);
    // Missing metric.
    EXPECT_NE(mustFail("alert a\n condition stuck\n").find("no metric"),
              std::string::npos);
    // Missing condition.
    EXPECT_NE(mustFail("alert a\n metric m\n").find("no condition"),
              std::string::npos);
    // Unknown condition / severity / keyword.
    EXPECT_NE(mustFail("alert a\n metric m\n condition sideways\n")
                  .find("unknown condition"),
              std::string::npos);
    EXPECT_NE(mustFail("alert a\n metric m\n condition stuck\n"
                       " severity mild\n")
                  .find("unknown severity"),
              std::string::npos);
    EXPECT_NE(mustFail("alert a\n metric m\n condition stuck\n"
                       " cheese brie\n")
                  .find("unknown keyword"),
              std::string::npos);
    // Bad numbers.
    EXPECT_NE(mustFail("alert a\n metric m\n condition above\n"
                       " threshold many\n")
                  .find("bad threshold"),
              std::string::npos);
    EXPECT_NE(mustFail("alert a\n metric m\n condition above\n"
                       " threshold 1\n windows 0\n")
                  .find("integer >= 1"),
              std::string::npos);
    // Multi-token name / glob.
    EXPECT_NE(mustFail("alert a b\n").find("single-token"),
              std::string::npos);
    EXPECT_NE(mustFail("alert a\n metric m n\n").find("single glob"),
              std::string::npos);
}

TEST(AlertGrammar, ThresholdPresenceMatchesCondition)
{
    EXPECT_NE(mustFail("alert a\n metric m\n condition above\n")
                  .find("requires a threshold"),
              std::string::npos);
    EXPECT_NE(mustFail("alert a\n metric m\n condition stuck\n"
                       " threshold 3\n")
                  .find("takes no threshold"),
              std::string::npos);
}

TEST(AlertGrammar, RejectsDuplicateNames)
{
    EXPECT_NE(mustFail("alert a\n metric m\n condition stuck\n"
                       "alert a\n metric m\n condition stuck\n")
                  .find("duplicate alert 'a'"),
              std::string::npos);
}

TEST(AlertGrammar, CanonicalRenderingIsStable)
{
    const auto rules =
        mustParse("alert a\n metric sim.*\n condition above\n"
                  " threshold 1.5\n windows 3\n severity critical\n"
                  "alert b\n metric m\n condition nonfinite\n");
    EXPECT_EQ(canonicalAlertRules(rules),
              "a|sim.*|above|1.5|3|critical;b|m|nonfinite|0|1|warn;");
}

// --------------------------------------------------------------------
// Condition math against scripted window series
// --------------------------------------------------------------------

StatSnapshot
window(double v)
{
    StatSnapshot s;
    StatValue sv;
    sv.kind = StatKind::Gauge;
    sv.num = v;
    s["m.value"] = sv;
    return s;
}

AlertRule
rule(AlertCondition cond, double threshold, std::uint32_t windows = 1,
     AlertSeverity sev = AlertSeverity::Warn)
{
    AlertRule r;
    r.name = "r";
    r.glob = "m.*";
    r.cond = cond;
    r.threshold = threshold;
    r.windows = windows;
    r.severity = sev;
    return r;
}

/** Feed @p series one window at a time; return active() after each. */
std::vector<bool>
drive(AlertEngine &eng, const std::vector<double> &series)
{
    std::vector<bool> active;
    for (std::size_t i = 0; i < series.size(); ++i) {
        eng.observe(static_cast<InstCount>((i + 1) * 1000),
                    window(series[i]));
        active.push_back(eng.active() > 0);
    }
    return active;
}

TEST(AlertConditions, AboveRaisesAfterStreakAndClears)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Above, 10.0, 2)});
    const auto active = drive(eng, {15, 5, 15, 15, 15, 5});
    //                 streak:      1  0   1   2(raise)  (clear)
    const std::vector<bool> want = {false, false, false,
                                    true,  true,  false};
    EXPECT_EQ(active, want);
    EXPECT_EQ(eng.raised(), 1u);
    EXPECT_EQ(eng.cleared(), 1u);
    const auto log = eng.log().items();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_TRUE(log[0].raisedEv);
    EXPECT_EQ(log[0].window, 3u);
    EXPECT_DOUBLE_EQ(log[0].value, 15.0);
    EXPECT_FALSE(log[1].raisedEv);
    EXPECT_EQ(log[1].windowsActive, 2u); // active windows 4 and 5
}

TEST(AlertConditions, BelowIsStrict)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Below, 10.0)});
    drive(eng, {10.0}); // not strictly below
    EXPECT_EQ(eng.raised(), 0u);
    drive(eng, {9.9});
    EXPECT_EQ(eng.raised(), 1u);
}

TEST(AlertConditions, EwmaDevNeverFiresOnFirstWindowAndUsesPreUpdate)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::EwmaDev, 0.5)});
    // Window 0: no history, a wild value cannot fire.
    eng.observe(1, window(1000.0));
    EXPECT_EQ(eng.raised(), 0u);
    // EWMA is now 1000 (seeded from window 0). A flat continuation
    // stays within 50% of the trend...
    eng.observe(2, window(900.0));
    EXPECT_EQ(eng.raised(), 0u);
    // ...and a collapse beyond 50% of the pre-update EWMA fires.
    // EWMA after window 1 = 0.25*900 + 0.75*1000 = 975; 400 deviates
    // by 575 > 0.5 * 975.
    eng.observe(3, window(400.0));
    EXPECT_EQ(eng.raised(), 1u);
}

TEST(AlertConditions, StuckNeedsARepeatNotAFirstValue)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Stuck, 0.0, 2)});
    const auto active = drive(eng, {7, 7, 7, 8, 8, 9});
    // Window 0 has no prev; streaks: -,1,2(raise),0(clear),1,0.
    const std::vector<bool> want = {false, false, true,
                                    false, false, false};
    EXPECT_EQ(active, want);
    EXPECT_EQ(eng.raised(), 1u);
    EXPECT_EQ(eng.cleared(), 1u);
}

TEST(AlertConditions, NonfiniteCatchesNanAndInf)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Nonfinite, 0.0)});
    drive(eng, {1.0, std::numeric_limits<double>::quiet_NaN()});
    EXPECT_EQ(eng.raised(), 1u);
    drive(eng, {1.0}); // finite again: clears
    EXPECT_EQ(eng.cleared(), 1u);
    drive(eng, {std::numeric_limits<double>::infinity()});
    EXPECT_EQ(eng.raised(), 2u);
}

TEST(AlertConditions, MissingMetricEvaluatesAsZero)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Below, 1.0)});
    eng.observe(1, window(5.0)); // binds m.value
    EXPECT_EQ(eng.raised(), 0u);
    eng.observe(2, StatSnapshot{}); // vanished metric reads 0 < 1
    EXPECT_EQ(eng.raised(), 1u);
}

// --------------------------------------------------------------------
// Binding, stats, log ring, escalation
// --------------------------------------------------------------------

TEST(AlertEngineTest, FirstMatchingRuleWinsPerMetric)
{
    AlertRule specific = rule(AlertCondition::Above, 100.0);
    specific.name = "specific";
    specific.glob = "m.value";
    AlertRule catchall = rule(AlertCondition::Above, 0.0);
    catchall.name = "catchall";
    catchall.glob = "*";
    AlertEngine eng;
    eng.enable({specific, catchall});
    eng.observe(1, window(50.0));
    // m.value bound to 'specific' (threshold 100), so 50 is quiet;
    // had 'catchall' won the bind, it would have raised.
    EXPECT_EQ(eng.instances(), 1u);
    EXPECT_EQ(eng.raised(), 0u);
}

TEST(AlertEngineTest, RaiseCountsBySeverityAndAppendFinal)
{
    AlertRule crit = rule(AlertCondition::Above, 10.0, 1,
                          AlertSeverity::Critical);
    AlertEngine eng;
    eng.enable({crit});
    drive(eng, {20, 20, 5, 20});
    EXPECT_EQ(eng.raised(), 2u);
    EXPECT_EQ(eng.raisedBySeverity(AlertSeverity::Critical), 2u);
    EXPECT_EQ(eng.raisedBySeverity(AlertSeverity::Warn), 0u);
    std::map<std::string, double> fin;
    eng.appendFinal(fin);
    EXPECT_DOUBLE_EQ(fin.at("alert.count.critical"), 2.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.raised"), 2.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.cleared"), 1.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.active"), 1.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.windows"), 4.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.instances"), 1.0);
    EXPECT_DOUBLE_EQ(fin.at("alert.log_dropped"), 0.0);
}

TEST(AlertEngineTest, EscalationHookFiresOnCriticalRaisesOnly)
{
    AlertRule warn = rule(AlertCondition::Above, 10.0);
    warn.name = "warn-rule";
    warn.glob = "m.value";
    AlertRule crit = rule(AlertCondition::Above, 10.0, 1,
                          AlertSeverity::Critical);
    crit.name = "crit-rule";
    crit.glob = "m.other";
    AlertEngine eng;
    eng.enable({warn, crit});
    std::vector<std::string> escalated;
    eng.setEscalation(
        [&escalated](const AlertRule &r, const std::string &metric) {
            escalated.push_back(r.name + ":" + metric);
        });
    StatSnapshot s = window(50.0);
    StatValue sv;
    sv.num = 50.0;
    s["m.other"] = sv;
    eng.observe(1, s);
    EXPECT_EQ(eng.raised(), 2u);
    // Only the critical rule escalates.
    ASSERT_EQ(escalated.size(), 1u);
    EXPECT_EQ(escalated[0], "crit-rule:m.other");
}

TEST(AlertEngineTest, LogRingWrapsWithDroppedAccounting)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Above, 10.0)}, 4);
    // Alternate 20/5: every pair of windows is one raise + one clear.
    std::vector<double> series;
    for (int i = 0; i < 5; ++i) {
        series.push_back(20.0);
        series.push_back(5.0);
    }
    drive(eng, series);
    EXPECT_EQ(eng.raised(), 5u);
    EXPECT_EQ(eng.cleared(), 5u);
    const auto log = eng.log().items();
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(eng.log().dropped(), 6u);
    // The survivors are the newest four events, oldest first.
    EXPECT_TRUE(log[0].raisedEv);
    EXPECT_EQ(log[0].window, 6u);
    EXPECT_FALSE(log[3].raisedEv);
    EXPECT_EQ(log[3].window, 9u);
}

TEST(AlertEngineTest, WriteJsonlShape)
{
    AlertEngine eng;
    eng.enable({rule(AlertCondition::Above, 10.0, 1,
                     AlertSeverity::Critical)});
    drive(eng, {20, 5});
    std::ostringstream os;
    eng.writeJsonl(os);
    std::istringstream is(os.str());
    std::string l1, l2;
    ASSERT_TRUE(std::getline(is, l1));
    ASSERT_TRUE(std::getline(is, l2));
    EXPECT_NE(l1.find("\"ev\":\"alert_raised\""), std::string::npos);
    EXPECT_NE(l1.find("\"rule\":\"r\""), std::string::npos);
    EXPECT_NE(l1.find("\"metric\":\"m.value\""), std::string::npos);
    EXPECT_NE(l1.find("\"severity\":\"critical\""), std::string::npos);
    EXPECT_EQ(l1.find("windows_active"), std::string::npos);
    EXPECT_NE(l2.find("\"ev\":\"alert_cleared\""), std::string::npos);
    EXPECT_NE(l2.find("\"windows_active\":1"), std::string::npos);
    EXPECT_EQ(os.str(),
              "{\"ev\":\"alert_raised\",\"window\":0,\"inst\":1000,"
              "\"rule\":\"r\",\"metric\":\"m.value\","
              "\"condition\":\"above\",\"severity\":\"critical\","
              "\"value\":20}\n"
              "{\"ev\":\"alert_cleared\",\"window\":1,\"inst\":2000,"
              "\"rule\":\"r\",\"metric\":\"m.value\","
              "\"condition\":\"above\",\"severity\":\"critical\","
              "\"value\":5,\"windows_active\":1}\n");
}

TEST(AlertEngineTest, DisarmedObserveIsANoOp)
{
    AlertEngine eng;
    eng.observe(1, window(1e9));
    EXPECT_FALSE(eng.enabled());
    EXPECT_EQ(eng.raised(), 0u);
    EXPECT_EQ(eng.instances(), 0u);
    EXPECT_EQ(eng.windowsSeen(), 0u);
}

// --------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------

TEST(AlertCheckpoint, RoundTripPreservesStreaksAndLog)
{
    AlertEngine a;
    a.enable({rule(AlertCondition::Above, 10.0, 3)}, 8);
    drive(a, {20, 20}); // mid-streak (2 of 3), nothing raised yet
    Serializer s;
    a.io(s);

    AlertEngine b;
    b.enable({rule(AlertCondition::Above, 10.0, 3)}, 8);
    Deserializer d(s.data());
    b.io(d);
    ASSERT_TRUE(d.atEnd());

    // Both continue identically: the restored streak raises on the
    // very next window.
    a.observe(3000, window(20.0));
    b.observe(3000, window(20.0));
    EXPECT_EQ(a.raised(), 1u);
    EXPECT_EQ(b.raised(), 1u);
    std::ostringstream ja, jb;
    a.writeJsonl(ja);
    b.writeJsonl(jb);
    EXPECT_EQ(ja.str(), jb.str());
    Serializer sa, sb;
    a.io(sa);
    b.io(sb);
    EXPECT_EQ(sa.data(), sb.data());
}

TEST(AlertCheckpointDeathTest, ConfigMismatchPanics)
{
    AlertEngine a;
    a.enable({rule(AlertCondition::Above, 10.0)}, 8);
    Serializer s;
    a.io(s);

    // Different rule count.
    AlertEngine b;
    b.enable({rule(AlertCondition::Above, 10.0),
              rule(AlertCondition::Below, 0.0)},
             8);
    Deserializer d1(s.data());
    EXPECT_DEATH(b.io(d1), "configuration mismatch");

    // Different log capacity.
    AlertEngine c;
    c.enable({rule(AlertCondition::Above, 10.0)}, 16);
    Deserializer d2(s.data());
    EXPECT_DEATH(c.io(d2), "configuration mismatch");
}

} // namespace
} // namespace mct
