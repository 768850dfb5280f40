/**
 * @file
 * Unit tests for the common utilities: statistics accumulators, the
 * sliding window behind the phase detector, Welch's t score, the
 * deterministic RNG, table formatting, CSV round-trips, and the JSON
 * writer with its number formatter checked against a reference model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace mct
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.push(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, ResetClearsEverything)
{
    RunningStat s;
    s.push(1.0);
    s.push(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStat, SingleSampleVarianceIsZero)
{
    RunningStat s;
    s.push(42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SlidingWindow, EvictsOldestWhenFull)
{
    SlidingWindow w(3);
    w.push(1.0);
    w.push(2.0);
    w.push(3.0);
    EXPECT_TRUE(w.full());
    EXPECT_DOUBLE_EQ(w.mean(), 2.0);
    w.push(10.0); // evicts 1.0
    EXPECT_DOUBLE_EQ(w.mean(), 5.0);
    EXPECT_EQ(w.size(), 3u);
}

TEST(SlidingWindow, RecentMeanAndVariance)
{
    SlidingWindow w(10);
    for (double v : {1.0, 1.0, 1.0, 5.0, 5.0})
        w.push(v);
    EXPECT_DOUBLE_EQ(w.recentMean(2), 5.0);
    EXPECT_DOUBLE_EQ(w.recentVariance(2), 0.0);
    EXPECT_NEAR(w.recentMean(5), 13.0 / 5.0, 1e-12);
}

TEST(SlidingWindow, VarianceMatchesDirectComputation)
{
    SlidingWindow w(100);
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < 50; ++i) {
        const double v = rng.uniform(0, 10);
        xs.push_back(v);
        w.push(v);
    }
    double mu = 0.0;
    for (double v : xs)
        mu += v;
    mu /= xs.size();
    double ss = 0.0;
    for (double v : xs)
        ss += (v - mu) * (v - mu);
    EXPECT_NEAR(w.variance(), ss / (xs.size() - 1), 1e-9);
}

TEST(SlidingWindow, ClearResets)
{
    SlidingWindow w(4);
    w.push(3.0);
    w.clear();
    EXPECT_EQ(w.size(), 0u);
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
}

TEST(Stats, GeomeanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(WelchT, IdenticalSamplesScoreZero)
{
    EXPECT_DOUBLE_EQ(welchTScore(5.0, 1.0, 10, 5.0, 1.0, 100), 0.0);
}

TEST(WelchT, LargerShiftLargerScore)
{
    const double s1 = welchTScore(5.0, 1.0, 10, 6.0, 1.0, 100);
    const double s2 = welchTScore(5.0, 1.0, 10, 9.0, 1.0, 100);
    EXPECT_GT(s2, s1);
    EXPECT_GT(s1, 0.0);
}

TEST(WelchT, ZeroVarianceDifferentMeansSaturates)
{
    EXPECT_GT(welchTScore(1.0, 0.0, 10, 2.0, 0.0, 10), 1e6);
}

TEST(WelchT, EmptySampleScoresZero)
{
    EXPECT_DOUBLE_EQ(welchTScore(1.0, 1.0, 0, 2.0, 1.0, 10), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(13);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.push(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.variance(), 1.0, 0.1);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.push(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.2);
}

TEST(Rng, FlipProbability)
{
    Rng rng(19);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.flip(0.25);
    EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xxxxx", "y"});
    t.row({"1", "2"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_NE(out.find("xxxxx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FmtHelpers)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmtBool(true), "True");
    EXPECT_EQ(fmtBool(false), "False");
    EXPECT_EQ(fmtOrNa(false, 3.5), "N/A");
    EXPECT_EQ(fmtOrNa(true, 3.5, 1), "3.5");
}

TEST(Csv, RoundTrip)
{
    CsvFile out;
    out.row({"app", "key", "1.5"});
    out.numericRow({1.0, 2.5, 3.25});
    const std::string path = "/tmp/mct_test_csv.csv";
    ASSERT_TRUE(out.save(path));

    CsvFile in;
    ASSERT_TRUE(in.load(path));
    ASSERT_EQ(in.data().size(), 2u);
    EXPECT_EQ(in.data()[0][0], "app");
    EXPECT_DOUBLE_EQ(CsvFile::asDouble(in.data()[1][1]), 2.5);
    std::remove(path.c_str());
}

TEST(Csv, LoadMissingFileFails)
{
    CsvFile in;
    EXPECT_FALSE(in.load("/tmp/definitely_missing_mct_file.csv"));
}

TEST(Csv, QuotedCellsRoundTrip)
{
    CsvFile out;
    out.row({"plain", "with,comma", "with \"quotes\""});
    out.row({"multi\nline", "", "trailing space "});
    out.row({"crlf\r\ncell", "comma,and\nnewline", "\"\""});
    const std::string path = "/tmp/mct_test_csv_quoted.csv";
    ASSERT_TRUE(out.save(path));

    CsvFile in;
    ASSERT_TRUE(in.load(path));
    ASSERT_EQ(in.data().size(), out.data().size());
    for (std::size_t r = 0; r < out.data().size(); ++r) {
        ASSERT_EQ(in.data()[r].size(), out.data()[r].size())
            << "row " << r;
        for (std::size_t c = 0; c < out.data()[r].size(); ++c)
            EXPECT_EQ(in.data()[r][c], out.data()[r][c])
                << "row " << r << " col " << c;
    }
    std::remove(path.c_str());
}

TEST(Csv, QuotedFieldsOnDiskParse)
{
    const std::string path = "/tmp/mct_test_csv_ondisk.csv";
    {
        std::ofstream os(path);
        os << "a,\"b,c\",\"say \"\"hi\"\"\"\n";
        os << "\"line\nbreak\",d\n";
    }
    CsvFile in;
    ASSERT_TRUE(in.load(path));
    ASSERT_EQ(in.data().size(), 2u);
    ASSERT_EQ(in.data()[0].size(), 3u);
    EXPECT_EQ(in.data()[0][1], "b,c");
    EXPECT_EQ(in.data()[0][2], "say \"hi\"");
    ASSERT_EQ(in.data()[1].size(), 2u);
    EXPECT_EQ(in.data()[1][0], "line\nbreak");
    std::remove(path.c_str());
}

TEST(Types, UnitRelations)
{
    EXPECT_EQ(tickSec, 1000 * tickMs);
    EXPECT_EQ(tickMs, 1000 * tickUs);
    EXPECT_EQ(tickUs, 1000 * tickNs);
    // 2 GHz CPU, 400 MHz memory.
    EXPECT_EQ(tickSec / cpuCyclePs, 2000000000ull);
    EXPECT_EQ(tickSec / memCyclePs, 400000000ull);
}

/**
 * The number formatter as it was written first, kept as the reference
 * the fast one must match byte for byte: `%.0f` for integers below
 * 1e15, else the `%.*g` with the fewest digits that `sscanf` reads
 * back exactly, else `%.17g`.
 */
std::string
referenceJsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(shorter, "%lf", &back);
        if (back == v)
            return shorter;
    }
    return buf;
}

/** About 100k doubles covering every region the formatter branches on. */
std::vector<double>
formatterProbes()
{
    using Lim = std::numeric_limits<double>;
    std::vector<double> v;
    Rng rng(2024);
    // Random finite bit patterns: both signs, every exponent.
    while (v.size() < 40000) {
        const std::uint64_t bits = rng.next();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        if (std::isfinite(d))
            v.push_back(d);
    }
    // Random subnormals (biased exponent 0).
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t bits =
            (rng.next() & ((1ULL << 52) - 1)) | (rng.next() & (1ULL << 63));
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        v.push_back(d);
    }
    // Every power of two with both neighbours.
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        v.push_back(p);
        v.push_back(std::nextafter(p, 0.0));
        v.push_back(std::nextafter(p, Lim::infinity()));
    }
    // Decimal grids.
    for (int i = 1; i <= 10000; ++i) {
        v.push_back(i / 1000.0);
        v.push_back(i * 1e-7);
        v.push_back(1.0 / i);
        v.push_back(std::sqrt(static_cast<double>(i)));
    }
    // Integers and half-integers on both sides of the 1e15 switch.
    for (int i = -1000; i <= 1000; ++i) {
        const double n = 1e15 + i;
        v.push_back(n);
        v.push_back(n + 0.5);
        v.push_back(-n);
        v.push_back(-n - 0.5);
    }
    for (double d : {0.0, -0.0, Lim::denorm_min(), Lim::min(), Lim::max(),
                     Lim::lowest(), -Lim::denorm_min(), -Lim::min()})
        v.push_back(d);
    return v;
}

TEST(JsonNumber, MatchesTheReferenceModel)
{
    const std::vector<double> probes = formatterProbes();
    ASSERT_GE(probes.size(), 95000u);
    std::size_t mismatches = 0;
    for (const double d : probes) {
        const std::string want = referenceJsonNumber(d);
        const std::string got = jsonNumber(d);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << std::hexfloat << d << ": got "
                          << got << ", reference " << want;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, NonFiniteIsNullAndCountedThroughTheWriter)
{
    resetJsonNonfiniteCount();
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginArray()
            .value(std::nan(""))
            .value(-std::numeric_limits<double>::infinity())
            .value(0.1)
            .endArray();
    }
    EXPECT_EQ(os.str(), "[null,null,0.1]");
    EXPECT_EQ(jsonNonfiniteCount(), 2u);
    resetJsonNonfiniteCount();
}

TEST(JsonWriter, EscapesKeysAndStringsInPlace)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv(std::string("q\"b\\s\n\r\t"), std::string("a\x01z\x1f\x7f"));
    w.kv("u", "caf\xc3\xa9");
    w.endObject();
    EXPECT_EQ(os.str(), "{\"q\\\"b\\\\s\\n\\r\\t\":\"a\\u0001z\\u001f\x7f\","
                        "\"u\":\"caf\xc3\xa9\"}");
}

TEST(JsonWriter, RawWritesBetweenTopLevelValuesKeepTheirPlace)
{
    // One writer, many records: each closes, flushes, and the
    // caller's newline lands after it.
    std::ostringstream os;
    JsonWriter w(os);
    for (int i = 0; i < 3; ++i) {
        w.beginObject();
        w.kv("i", i);
        w.kv("big", std::uint64_t{18446744073709551615ULL});
        w.kv("neg", std::int64_t{-9223372036854775807LL - 1});
        w.kv("ok", i == 1);
        w.endObject();
        os << '\n';
    }
    w.value(7);
    os << '\n';
    EXPECT_EQ(os.str(),
              "{\"i\":0,\"big\":18446744073709551615,"
              "\"neg\":-9223372036854775808,\"ok\":false}\n"
              "{\"i\":1,\"big\":18446744073709551615,"
              "\"neg\":-9223372036854775808,\"ok\":true}\n"
              "{\"i\":2,\"big\":18446744073709551615,"
              "\"neg\":-9223372036854775808,\"ok\":false}\n"
              "7\n");
}

TEST(JsonWriter, LargeDocumentsFlushInOrder)
{
    // Far more than one buffer's worth, with strings longer than the
    // buffer itself; the stream sees exactly the concatenation.
    const std::string longText(10000, 'x');
    std::ostringstream os;
    std::string want = "[";
    {
        JsonWriter w(os);
        w.beginArray();
        for (int i = 0; i < 3000; ++i) {
            if (i)
                want += ',';
            if (i % 1000 == 999) {
                w.value(longText);
                want += '"';
                want += longText;
                want += '"';
            } else {
                w.value(i * 0.25);
                want += jsonNumber(i * 0.25);
            }
        }
        w.endArray();
        want += ']';
    }
    EXPECT_EQ(os.str(), want);
}

TEST(JsonWriter, FailedWriteFailsTheStream)
{
    std::ostream os(nullptr); // no buffer: every write fails
    JsonWriter w(os);
    w.beginObject().kv("a", 1).endObject();
    EXPECT_TRUE(os.bad());
}

} // namespace
} // namespace mct
