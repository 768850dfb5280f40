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

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <streambuf>
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
 * Stream-style atomic publication for emitters built around
 * std::ostream. Construction creates `<path>.tmp`, and stream()
 * writes into it through a fixed 64 KiB buffer, so a document of any
 * size costs one buffer of memory. commit() flushes, fsyncs, closes
 * and renames it over the target. It returns false, with a warning,
 * when the open, any write, the flush, the fsync, the close or the
 * rename failed; the staging file is then removed and the target left
 * untouched. Destruction without a commit removes the staging file,
 * and a second commit() after a success is a no-op that returns true.
 * Two AtomicFiles must not be open on one path at once: they would
 * share the staging file.
 */
class AtomicFile
{
  public:
    explicit AtomicFile(std::string path);
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** The stream into the staging file. */
    std::ostream &stream() { return os; }

    /** Publish the staged content; false leaves the target untouched. */
    [[nodiscard]] bool commit();

    const std::string &path() const { return target; }

  private:
    /** Hands every write to the staging file's FILE, buffered in
     *  space, and remembers whether all of them succeeded. */
    class StagingBuf : public std::streambuf
    {
      public:
        static constexpr std::size_t spaceBytes = 64 * 1024;

        std::unique_ptr<char[]> space{new char[spaceBytes]};
        std::FILE *file = nullptr;
        bool good = true;

      protected:
        int_type overflow(int_type c) override;
        std::streamsize xsputn(const char *s, std::streamsize n) override;
    };

    std::string target;
    std::string tmp;
    StagingBuf buf;
    std::ostream os{&buf};
    bool committed = false;
    bool failed = false;
};

} // namespace mct

#endif // MCT_COMMON_ATOMIC_FILE_HH
