#include "common/atomic_file.hh"

#include <cstdio>

#include <unistd.h>

#include "common/logging.hh"

namespace mct
{

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

bool
AtomicFile::commit()
{
    if (committed)
        return true;
    committed = writeFileAtomic(target, os.view());
    return committed;
}

} // namespace mct
