#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>

namespace mct
{

namespace
{

/** Process-wide tally of NaN/Inf values that reached the emitter. */
std::uint64_t nonfiniteEmitted = 0;

/** Characters formatFinite() may write. */
constexpr std::size_t numberChars = 32;

/**
 * Spell finite @p v at @p first and return one past its end.
 * Integers small enough to be exact print as `%.0f` would, so
 * counters stay integral; anything else prints as the `%.*g` with
 * the fewest digits that reads back exactly, else as `%.17g`.
 */
char *
formatFinite(char *first, double v)
{
    char *const last = first + numberChars;
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        if (v == 0.0 && std::signbit(v)) {
            *first = '-';
            *(first + 1) = '0';
            return first + 2;
        }
        return std::to_chars(first, last, static_cast<std::int64_t>(v))
            .ptr;
    }
    // A %.*g spelling with fewer significant digits than the shortest
    // round-trip form cannot read back exactly, so the search starts
    // at that form's digit count (its scientific mantissa's digits).
    char *end =
        std::to_chars(first, last, v, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char *c = first; c != end && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    for (int prec = std::max(1, digits); prec < 17; ++prec) {
        end = std::to_chars(first, last, v, std::chars_format::general,
                            prec)
                  .ptr;
        double back = 0.0;
        if (std::from_chars(first, end, back).ec == std::errc{} &&
            back == v)
            return end;
    }
    return std::to_chars(first, last, v, std::chars_format::general, 17)
        .ptr;
}

} // namespace

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        ++nonfiniteEmitted;
        out += "null";
        return;
    }
    char buf[numberChars];
    out.append(buf, formatFinite(buf, v));
}

std::uint64_t
jsonNonfiniteCount()
{
    return nonfiniteEmitted;
}

void
resetJsonNonfiniteCount()
{
    nonfiniteEmitted = 0;
}

void
restoreJsonNonfiniteCount(std::uint64_t value)
{
    nonfiniteEmitted = value;
}

std::string
jsonNumber(double v)
{
    std::string s;
    appendJsonNumber(s, v);
    return s;
}

void
JsonWriter::flush()
{
    if (buf.empty())
        return;
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

JsonWriter &
JsonWriter::closed()
{
    if (pending.empty() || buf.size() >= flushBytes)
        flush();
    return *this;
}

void
JsonWriter::separate()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (!pending.empty()) {
        if (pending.back() == '1')
            buf += ',';
        pending.back() = '1';
    }
}

void
JsonWriter::quoted(std::string_view s)
{
    buf += '"';
    std::size_t from = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        buf.append(s.data() + from, i - from);
        from = i + 1;
        switch (c) {
          case '"':
            buf += "\\\"";
            break;
          case '\\':
            buf += "\\\\";
            break;
          case '\n':
            buf += "\\n";
            break;
          case '\r':
            buf += "\\r";
            break;
          case '\t':
            buf += "\\t";
            break;
          default:
            buf += "\\u00";
            buf += "0123456789abcdef"[c >> 4];
            buf += "0123456789abcdef"[c & 0xf];
        }
    }
    buf.append(s.data() + from, s.size() - from);
    buf += '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    buf += '{';
    pending.push_back('0');
    return closed();
}

JsonWriter &
JsonWriter::endObject()
{
    pending.pop_back();
    buf += '}';
    return closed();
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    buf += '[';
    pending.push_back('0');
    return closed();
}

JsonWriter &
JsonWriter::endArray()
{
    pending.pop_back();
    buf += ']';
    return closed();
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    separate();
    quoted(k);
    buf += ':';
    afterKey = true;
    return closed();
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    quoted(v);
    return closed();
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    appendJsonNumber(buf, v);
    return closed();
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    char num[numberChars];
    buf.append(num, std::to_chars(num, num + numberChars, v).ptr);
    return closed();
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    char num[numberChars];
    buf.append(num, std::to_chars(num, num + numberChars, v).ptr);
    return closed();
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    buf += v ? "true" : "false";
    return closed();
}

} // namespace mct
