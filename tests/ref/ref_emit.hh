/**
 * @file
 * A frozen copy of the event-trace and span-trace writers as they
 * stood before each record was formatted straight into a chunk
 * buffer: every key, value and bracket goes through JsonWriter, which
 * separates, escapes and tests for a flush on every call. Test-only.
 * The lockstep emission test runs these beside the production writers
 * and requires the same bytes and the same advance of the non-finite
 * counter.
 *
 * The writers are free functions over a ring's items() instead of
 * members; the output is byte for byte the members' output at that
 * version. Do not optimize this file: its value is that it stays the
 * plain version.
 */

#ifndef MCT_TESTS_REF_REF_EMIT_HH
#define MCT_TESTS_REF_REF_EMIT_HH

#include <iosfwd>
#include <vector>

#include "common/instrument.hh"

namespace mct::ref
{

/** EventTrace::writeJsonl: one {"ev","inst",<named args>} per line. */
void writeEventJsonl(std::ostream &os,
                     const std::vector<TraceEvent> &events);

/** EventTrace::writeChromeTrace: sampling rounds as B/E pairs, every
 *  other event an instant. */
void writeEventChrome(std::ostream &os,
                      const std::vector<TraceEvent> &events);

/** SpanTrace::writeJsonl: one record per line, integer fields only. */
void writeSpanJsonl(std::ostream &os,
                    const std::vector<SpanRecord> &spans);

/** SpanTrace::writeChromeTrace: one "X" slice per present stage on
 *  its component's track. */
void writeSpanChrome(std::ostream &os,
                     const std::vector<SpanRecord> &spans);

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_EMIT_HH
