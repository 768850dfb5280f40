/**
 * @file
 * Crash-safe checkpoint store (see docs/robustness.md).
 *
 * A checkpoint is one self-validating binary file:
 *
 *     magic "MCTCKPT\0" | u32 format version | u64 sequence
 *     | fingerprint string | payload string | u64 FNV-1a checksum
 *
 * where both strings are length-prefixed and the checksum covers
 * every preceding byte. The store double-buffers two slot files
 * (<base>.0 and <base>.1), always overwriting the older slot through
 * a temp-file + atomic-rename publish, so a crash mid-write can never
 * destroy the last good checkpoint. Loading validates both slots,
 * quarantines any that fail (renamed to <slot>.corrupt), and resumes
 * from the highest surviving sequence number.
 *
 * The fingerprint pins the run identity (mode, workload, seed, flag
 * set); resuming under different flags is refused by the driver, not
 * silently mis-replayed. All ckpt.* stats are host-scoped: checkpoint
 * activity never perturbs the deterministic Sim stat surfaces.
 *
 * The payload is a tagless field stream: each component names its
 * fields once, in one io(Ar&) body that both the writer and the
 * reader run (see common/serialize.hh and docs/robustness.md).
 */

#ifndef MCT_SIM_CHECKPOINT_HH
#define MCT_SIM_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mct
{

class StatRegistry;

/** Current checkpoint format version. Version 2 appended the
 *  MetricTimeline and AlertEngine state to System's payload. */
constexpr std::uint32_t checkpointFormatVersion = 2;

/** Outcome of CheckpointStore::load(). */
struct CheckpointLoadResult
{
    /** A valid checkpoint was found and decoded. */
    bool ok = false;

    /** The serialized simulation state (valid when ok). */
    std::string payload;

    /** The run fingerprint recorded at save time (valid when ok). */
    std::string fingerprint;

    /** Monotonic save sequence of the loaded slot (valid when ok). */
    std::uint64_t sequence = 0;

    /** Slot file the state was loaded from (valid when ok). */
    std::string slotFile;

    /** At least one slot existed but failed validation and was
     *  quarantined (can be true even when ok: the fall-back slot
     *  survived). */
    bool corruptRejected = false;

    /** Human-readable reason when !ok. */
    std::string error;
};

/**
 * Double-buffered checkpoint slots around a base path.
 */
class CheckpointStore
{
  public:
    /** @param basePath Slot files are <basePath>.0 and <basePath>.1. */
    explicit CheckpointStore(std::string basePath);

    /**
     * Publish a checkpoint of @p payload into the older slot via
     * temp-file + atomic rename. Returns false (with a warning) when
     * the write failed; the previous checkpoint is untouched either
     * way.
     */
    [[nodiscard]] bool save(const std::string &fingerprint,
                            std::string_view payload);

    /**
     * Validate both slots and decode the one with the highest
     * sequence. Slots that fail validation (truncated, bit-flipped,
     * unknown version) are renamed to <slot>.corrupt and counted
     * under ckpt.corrupt_loads; load falls back to the surviving
     * slot.
     */
    CheckpointLoadResult load();

    /** Path of the most recently written slot ("" before any save). */
    const std::string &newestSlot() const { return lastWritten; }

    /** Count one successful resume (driver calls after restoring). */
    void noteResume() { ++nResumes; }

    /** Register the host-scoped ckpt.* stats. */
    void registerStats(StatRegistry &reg);

    /** Checkpoints written. */
    std::uint64_t writes() const { return nWrites; }

    /** Slots rejected by validation and quarantined. */
    std::uint64_t corruptLoads() const { return nCorruptLoads; }

    /** Successful restores noted via noteResume(). */
    std::uint64_t resumes() const { return nResumes; }

  private:
    /** Opens the slot reader to the lockstep test. */
    friend struct CheckpointSlotAccess;

    /** Bytes per read of a slot file. */
    static constexpr std::size_t readChunk = 64 * 1024;

    std::string base;
    std::string slots[2];
    std::uint64_t nextSeq = 1;
    std::string lastWritten;
    std::uint64_t nWrites = 0;
    std::uint64_t nBytesWritten = 0;
    std::uint64_t nCorruptLoads = 0;
    std::uint64_t nResumes = 0;

    /** Decode one slot; ok=false with error when invalid/missing.
     *  The payload is copied out only when @p withPayload is set. */
    static CheckpointLoadResult tryLoadSlot(const std::string &file,
                                            bool withPayload);

    /** Rename a failed slot to <slot>.corrupt and count it. */
    void quarantine(const std::string &file);
};

} // namespace mct

#endif // MCT_SIM_CHECKPOINT_HH
