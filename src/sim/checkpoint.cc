#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

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

/** Header bytes up to and including the fingerprint's length. */
constexpr std::size_t fixedHeader = sizeof(checkpointMagic) + 4 + 8 + 8;

/** The smallest slot: the fixed header, an empty fingerprint, the
 *  payload's length and the footer. */
constexpr std::size_t minSlotSize = fixedHeader + 8 + 8;

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
CheckpointStore::tryLoadSlot(const std::string &file, bool withPayload)
{
    CheckpointLoadResult r;
    std::FILE *const f = std::fopen(file.c_str(), "rb");
    if (!f) {
        r.error = "missing";
        return r;
    }
    std::error_code ec;
    const std::uintmax_t fileSize = std::filesystem::file_size(file, ec);
    std::string payload; // load()'s copy, sized from the file
    if (withPayload && !ec)
        payload.reserve(static_cast<std::size_t>(fileSize));

    // One pass through a fixed buffer. Every byte but the last 8 (the
    // footer, held back until the end) feeds the checksum and goes to
    // the header or, for load(), to the payload. The fingerprint's
    // length only routes bytes; nothing is decoded until the checksum
    // verifies.
    const std::unique_ptr<char[]> chunk(new char[readChunk + 8]);
    std::string header;
    std::size_t headerEnd = fixedHeader; // grows once the length is in
    std::size_t payloadBytes = 0;
    std::size_t total = 0;
    std::size_t held = 0; // bytes carried at the front of chunk
    std::uint64_t sum = fnv1a(nullptr, 0);
    for (;;) {
        const std::size_t got = std::fread(chunk.get() + held, 1,
                                           readChunk, f);
        if (got == 0)
            break;
        total += got;
        const std::size_t have = held + got;
        if (have <= 8) {
            held = have;
            continue;
        }
        const char *p = chunk.get();
        std::size_t n = have - 8;
        sum = fnv1a(p, n, sum);
        while (n > 0 && header.size() < headerEnd) {
            const std::size_t take = std::min(n, headerEnd - header.size());
            header.append(p, take);
            p += take;
            n -= take;
            if (header.size() == fixedHeader && headerEnd == fixedHeader) {
                const std::uint64_t fpLen =
                    Deserializer(header.data() + fixedHeader - 8, 8)
                        .getU64();
                // The fingerprint, then the payload's length.
                headerEnd = fpLen < SIZE_MAX - fixedHeader - 8
                                ? fixedHeader + fpLen + 8
                                : SIZE_MAX;
            }
        }
        payloadBytes += n;
        if (withPayload)
            payload.append(p, n);
        std::memmove(chunk.get(), chunk.get() + have - 8, 8);
        held = 8;
    }
    std::fclose(f);

    if (total < minSlotSize) {
        r.error = "truncated (" + std::to_string(total) + " bytes)";
        return r;
    }
    Deserializer footer(chunk.get(), 8);
    if (footer.getU64() != sum) {
        r.error = "checksum mismatch";
        return r;
    }

    Deserializer d(header);
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
    const std::uint64_t payloadLen = d.getU64();
    if (!d.atEnd() || payloadLen != payloadBytes) {
        r.error = "malformed body";
        return r;
    }
    r.payload = std::move(payload);
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
