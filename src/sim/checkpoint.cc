#include "sim/checkpoint.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

namespace
{

constexpr char checkpointMagic[8] = {'M', 'C', 'T', 'C',
                                     'K', 'P', 'T', '\0'};

/** Read all of @p file into @p body, sized from the file; false when
 *  it cannot be opened. */
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

} // namespace

CheckpointStore::CheckpointStore(std::string basePath)
    : base(std::move(basePath))
{
    if (base.empty())
        mct_fatal("CheckpointStore: empty base path");
    slots[0] = base + ".0";
    slots[1] = base + ".1";
    // Continue the sequence past any checkpoints already on disk so a
    // resumed run never overwrites its newest slot with a lower
    // sequence number.
    for (const auto &slot : slots) {
        const CheckpointLoadResult r = tryLoadSlot(slot, false);
        if (r.ok && r.sequence >= nextSeq) {
            nextSeq = r.sequence + 1;
            lastWritten = slot;
        }
    }
}

bool
CheckpointStore::save(const std::string &fingerprint,
                      std::string_view payload)
{
    // The payload goes out as it is, between a header and a footer
    // whose checksum chains through both.
    Serializer header;
    for (const char c : checkpointMagic)
        header.putU8(static_cast<std::uint8_t>(c));
    header.putU32(checkpointFormatVersion);
    header.putU64(nextSeq);
    header.putStr(fingerprint);
    header.putU64(payload.size());
    Serializer footer;
    footer.putU64(fnv1a(payload.data(), payload.size(),
                        fnv1a(header.data().data(), header.size())));

    // Alternate slots so the previous checkpoint survives until this
    // one is fully published.
    const std::string &slot = slots[nextSeq % 2];
    if (!writeFileAtomic(slot,
                         {header.data(), payload, footer.data()})) {
        mct_warn("checkpoint save failed: ", slot);
        return false;
    }
    lastWritten = slot;
    ++nextSeq;
    ++nWrites;
    nBytesWritten += header.size() + payload.size() + footer.size();
    return true;
}

CheckpointLoadResult
CheckpointStore::tryLoadSlot(const std::string &file,
                             bool withPayload) const
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

void
CheckpointStore::quarantine(const std::string &file)
{
    const std::string target = file + ".corrupt";
    std::remove(target.c_str());
    if (std::rename(file.c_str(), target.c_str()) != 0)
        mct_warn("cannot quarantine corrupt checkpoint ", file);
    ++nCorruptLoads;
}

CheckpointLoadResult
CheckpointStore::load()
{
    CheckpointLoadResult best;
    bool sawCorrupt = false;
    std::string errors;
    for (const auto &slot : slots) {
        CheckpointLoadResult r = tryLoadSlot(slot, true);
        if (r.ok) {
            if (!best.ok || r.sequence > best.sequence)
                best = std::move(r);
            continue;
        }
        if (r.error != "missing") {
            mct_warn("checkpoint slot ", slot, " rejected: ", r.error);
            quarantine(slot);
            sawCorrupt = true;
        }
        if (!errors.empty())
            errors += "; ";
        errors += slot + ": " + r.error;
    }
    best.corruptRejected = sawCorrupt;
    if (!best.ok)
        best.error = errors.empty() ? "no checkpoint found" : errors;
    return best;
}

void
CheckpointStore::registerStats(StatRegistry &reg)
{
    reg.addCounter("ckpt.writes", [this] { return nWrites; },
                   "checkpoints published");
    reg.addCounter("ckpt.bytes", [this] { return nBytesWritten; },
                   "checkpoint bytes written");
    reg.addCounter("ckpt.corrupt_loads",
                   [this] { return nCorruptLoads; },
                   "slots rejected by validation and quarantined");
    reg.addCounter("ckpt.resumes", [this] { return nResumes; },
                   "successful restores from a checkpoint");
    // Host-scoped: checkpoint activity depends on --ckpt-* flags and
    // signals, not simulated state; it must never perturb the
    // byte-identical Sim snapshot surfaces.
    reg.markHost("ckpt.writes");
    reg.markHost("ckpt.bytes");
    reg.markHost("ckpt.corrupt_loads");
    reg.markHost("ckpt.resumes");
}

} // namespace mct
