/**
 * @file
 * Atomic file publication: content is staged to `path.tmp`, flushed
 * to stable storage, and renamed over the target in one step, so a
 * reader never observes a torn or half-written file and a crash mid
 * write leaves the previous version intact. Every emitter (stats /
 * spans / provenance JSON, sweep-cache CSV, bench reports,
 * checkpoints) publishes through this helper.
 */

#ifndef MCT_COMMON_ATOMIC_FILE_HH
#define MCT_COMMON_ATOMIC_FILE_HH

#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>

namespace mct
{

/**
 * Write the concatenation of @p parts to @p path atomically (stage,
 * flush+fsync, rename). Returns false and cleans up the staging file
 * on any failure; the target is either fully replaced or untouched.
 */
[[nodiscard]] bool
writeFileAtomic(const std::string &path,
                std::initializer_list<std::string_view> parts);

/** writeFileAtomic() of a single part. */
[[nodiscard]] inline bool
writeFileAtomic(const std::string &path, std::string_view content)
{
    return writeFileAtomic(path,
                           std::initializer_list<std::string_view>{content});
}

/**
 * Stream-style wrapper over writeFileAtomic for emitters built around
 * std::ostream. Content accumulates in memory and reaches the target
 * path only on commit(); destruction without commit discards it.
 */
class AtomicFile
{
  public:
    explicit AtomicFile(std::string path) : target(std::move(path)) {}

    /** The in-memory staging stream. */
    std::ostream &stream() { return os; }

    /** Publish the staged content; false leaves the target untouched. */
    [[nodiscard]] bool commit();

    const std::string &path() const { return target; }

  private:
    std::string target;
    std::ostringstream os;
    bool committed = false;
};

} // namespace mct

#endif // MCT_COMMON_ATOMIC_FILE_HH
