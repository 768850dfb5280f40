#include "ref_slot.hh"

#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/serialize.hh"

namespace mct::ref
{

namespace
{

constexpr char checkpointMagic[8] = {'M', 'C', 'T', 'C',
                                     'K', 'P', 'T', '\0'};

} // namespace

bool
readSlotFile(const std::string &file, std::string &body)
{
    std::ifstream in(file, std::ios::binary);
    if (!in)
        return false;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(file, ec);
    body.resize(ec ? 0 : static_cast<std::size_t>(size));
    in.read(body.data(), static_cast<std::streamsize>(body.size()));
    body.resize(static_cast<std::size_t>(in.gcount()));
    return true;
}

CheckpointLoadResult
tryLoadSlot(const std::string &file, bool withPayload)
{
    CheckpointLoadResult r;
    std::string body;
    if (!readSlotFile(file, body)) {
        r.error = "missing";
        return r;
    }

    // Footer first: nothing is decoded until the checksum verifies.
    constexpr std::size_t minSize = sizeof(checkpointMagic) + 4 + 8 +
                                    8 + 8 + 8;
    if (body.size() < minSize) {
        r.error = "truncated (" + std::to_string(body.size()) +
                  " bytes)";
        return r;
    }
    const std::size_t csumAt = body.size() - 8;
    Deserializer footer(body.data() + csumAt, 8);
    const std::uint64_t stored = footer.getU64();
    const std::uint64_t computed = fnv1a(body.data(), csumAt);
    if (stored != computed) {
        r.error = "checksum mismatch";
        return r;
    }

    Deserializer d(body.data(), csumAt);
    for (const char c : checkpointMagic) {
        if (d.getU8() != static_cast<std::uint8_t>(c)) {
            r.error = "bad magic";
            return r;
        }
    }
    const std::uint32_t version = d.getU32();
    if (version != checkpointFormatVersion) {
        r.error = "format version " + std::to_string(version) +
                  " (expected " +
                  std::to_string(checkpointFormatVersion) + ")";
        return r;
    }
    r.sequence = d.getU64();
    r.fingerprint = d.getStr();
    const std::string_view payload = d.getStrView();
    if (!d.atEnd()) {
        r.error = "malformed body";
        return r;
    }
    if (withPayload)
        r.payload = payload;
    r.slotFile = file;
    r.ok = true;
    return r;
}

} // namespace mct::ref
