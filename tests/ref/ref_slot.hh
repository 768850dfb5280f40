/**
 * @file
 * A frozen copy of the checkpoint slot reader as it stood before slots
 * were checksummed through a fixed read buffer: the whole file is read
 * into one zero-filled string sized from the file, the footer is
 * checked against FNV-1a over everything before it, and then the
 * header and payload are decoded in place. Test-only. The lockstep
 * slot test runs it beside CheckpointStore's reader on valid, cut,
 * bit-flipped and rewritten slots and requires the same result.
 *
 * tryLoadSlot is a free function here instead of a private member;
 * the result is field for field the member's at that version. Do not
 * optimize this file: its value is that it stays the plain version.
 */

#ifndef MCT_TESTS_REF_REF_SLOT_HH
#define MCT_TESTS_REF_REF_SLOT_HH

#include <string>

#include "sim/checkpoint.hh"

namespace mct::ref
{

/** Read all of @p file into @p body, sized from the file; false when
 *  it cannot be opened. */
bool readSlotFile(const std::string &file, std::string &body);

/** Decode one slot; ok=false with error when invalid/missing. The
 *  payload is copied out only when @p withPayload is set. */
CheckpointLoadResult tryLoadSlot(const std::string &file,
                                 bool withPayload);

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_SLOT_HH
