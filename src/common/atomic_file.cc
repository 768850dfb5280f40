#include "common/atomic_file.hh"

#include <utility>

#include <unistd.h>

#include "common/logging.hh"

namespace mct
{

namespace
{

/**
 * Finish the staging file @p f, whose writes succeeded when @p good:
 * flush, fsync and close it, then rename @p tmp over @p path. False,
 * with the staging file removed and a warning, when any step failed.
 */
bool
publishStaged(std::FILE *f, bool good, const std::string &tmp,
              const std::string &path)
{
    good = good && std::fflush(f) == 0;
    // Flush the staged bytes to stable storage before the rename makes
    // them visible, so a crash cannot publish an empty or partial file.
    good = good && ::fsync(::fileno(f)) == 0;
    good = std::fclose(f) == 0 && good;
    if (good)
        good = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!good) {
        std::remove(tmp.c_str());
        mct_warn("atomic write: failed to publish ", path);
    }
    return good;
}

} // namespace

bool
writeFileAtomic(const std::string &path,
                std::initializer_list<std::string_view> parts)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        mct_warn("atomic write: cannot open ", tmp);
        return false;
    }
    bool good = true;
    for (const std::string_view part : parts)
        good = good && (part.empty() ||
                        std::fwrite(part.data(), 1, part.size(), f) ==
                            part.size());
    return publishStaged(f, good, tmp, path);
}

AtomicFile::StagingBuf::int_type
AtomicFile::StagingBuf::overflow(int_type c)
{
    if (traits_type::eq_int_type(c, traits_type::eof()))
        return traits_type::not_eof(c);
    good = good && std::fputc(c, file) != EOF;
    return good ? c : traits_type::eof();
}

std::streamsize
AtomicFile::StagingBuf::xsputn(const char *s, std::streamsize n)
{
    const auto len = static_cast<std::size_t>(n);
    good = good && std::fwrite(s, 1, len, file) == len;
    return good ? n : 0;
}

AtomicFile::AtomicFile(std::string path)
    : target(std::move(path)), tmp(target + ".tmp")
{
    buf.file = std::fopen(tmp.c_str(), "wb");
    if (buf.file)
        std::setvbuf(buf.file, buf.space.get(), _IOFBF,
                     StagingBuf::spaceBytes);
    else
        os.setstate(std::ios::badbit); // writes become no-ops
}

AtomicFile::~AtomicFile()
{
    if (buf.file) {
        std::fclose(buf.file);
        std::remove(tmp.c_str());
    }
}

bool
AtomicFile::commit()
{
    if (committed || failed)
        return committed;
    if (!buf.file) {
        failed = true;
        mct_warn("atomic write: cannot open ", tmp);
        return false;
    }
    committed = publishStaged(std::exchange(buf.file, nullptr), buf.good,
                              tmp, target);
    failed = !committed;
    return committed;
}

} // namespace mct
