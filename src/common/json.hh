/**
 * @file
 * Minimal JSON emission helpers for the machine-readable telemetry
 * surfaces (stats snapshots, event traces, bench self-profiles). Only
 * writing is supported — the simulator never consumes JSON — and the
 * output is deterministic: keys are emitted in the order given and
 * doubles use a fixed shortest-round-trip format.
 */

#ifndef MCT_COMMON_JSON_HH
#define MCT_COMMON_JSON_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace mct
{

/**
 * Format a double as a JSON number. NaN/Inf have no JSON spelling and
 * become the literal `null`; each occurrence bumps the process-wide
 * counter below so corrupted telemetry is visible rather than masked.
 */
std::string jsonNumber(double v);

/** Append @p v to @p out as jsonNumber() spells it, counting a
 *  non-finite value the same way. */
void appendJsonNumber(std::string &out, double v);

/** Non-finite values encountered by jsonNumber since the last reset. */
std::uint64_t jsonNonfiniteCount();

/** Reset the non-finite counter (tests and fresh runs). */
void resetJsonNonfiniteCount();

/** Restore the non-finite counter from a checkpoint so the resumed
 *  run's stats.nonfinite matches the uninterrupted run's. */
void restoreJsonNonfiniteCount(std::uint64_t value);

/**
 * Streaming writer for a nesting of JSON objects and arrays. The
 * caller supplies structure through begin/end calls; the writer
 * inserts commas and key quoting. No pretty-printing beyond newlines
 * between top-level members (jq handles the rest).
 *
 * Output collects in a small buffer of the writer's own and reaches
 * the stream when a top-level value closes or the buffer passes
 * flushBytes, so every value must be closed. The rule that follows:
 * while a writer is open, raw writes to its stream happen only
 * between top-level values (a record loop's `os << '\n'`), never
 * inside one. One writer may emit many top-level values in a row.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : out(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a keyed member inside an object (value follows). */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** Shorthand: key followed by a scalar value. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    /** Buffered bytes past which the writer flushes mid-value. */
    static constexpr std::size_t flushBytes = 4096;

    std::ostream &out;
    std::string buf;
    /** Whether a comma is owed before the next element, per depth. */
    std::string pending; // stack of '0'/'1' flags, one char per depth
    bool afterKey = false;

    void separate();
    /** Append @p s quoted, escaping as it goes. */
    void quoted(std::string_view s);
    /** End of a call: flush once no value is open or the buffer is
     *  full. */
    JsonWriter &closed();
    void flush();
};

} // namespace mct

#endif // MCT_COMMON_JSON_HH
