/**
 * @file
 * Lockstep differential test of the checkpoint slot reader. The one
 * reader behind CheckpointStore's opening scan and load() runs beside
 * the frozen whole-file reader in tests/ref on valid slots (one larger
 * than several read buffers, one whose fingerprint outgrows the read
 * buffer), on every short cut and each of the last sixteen, on single
 * flipped bytes, on headers rewritten under a recomputed footer
 * (hostile lengths and a payload length off by one among them), on
 * trailing bytes and on empty and missing files. Both modes, scan
 * (no payload) and load, must give the same ok, error, sequence,
 * fingerprint, payload and slot file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "ref/ref_slot.hh"
#include "sim/checkpoint.hh"

namespace mct
{

/** The store's slot reader, opened to this test. */
struct CheckpointSlotAccess
{
    static constexpr std::size_t readChunk = CheckpointStore::readChunk;

    static CheckpointLoadResult
    read(const std::string &file, bool withPayload)
    {
        return CheckpointStore::tryLoadSlot(file, withPayload);
    }
};

namespace
{

constexpr std::size_t magicBytes = 8;

/** Where the fingerprint's length field sits. */
constexpr std::size_t fpLenAt = magicBytes + 4 + 8;

/** A per-test slot path in the gtest temp dir, removed when done. */
class SlotFile
{
  public:
    explicit SlotFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "mct_slot_" + name)
    {
        std::remove(path_.c_str());
    }
    ~SlotFile() { std::remove(path_.c_str()); }
    SlotFile(const SlotFile &) = delete;
    SlotFile &operator=(const SlotFile &) = delete;

    const std::string &path() const { return path_; }

    void
    write(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

  private:
    std::string path_;
};

/** The slot bytes CheckpointStore::save writes for one checkpoint. */
std::string
savedSlot(const std::string &fingerprint, const std::string &payload)
{
    const std::string base =
        std::string(::testing::TempDir()) + "mct_slot_saved";
    for (const char *suffix : {".0", ".1"})
        std::remove((base + suffix).c_str());
    std::string bytes;
    {
        CheckpointStore store(base);
        EXPECT_TRUE(store.save(fingerprint, payload));
        std::ifstream in(store.newestSlot(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    for (const char *suffix : {".0", ".1"})
        std::remove((base + suffix).c_str());
    return bytes;
}

/** @p body (without its footer) followed by its FNV-1a footer. */
std::string
withFooter(std::string body)
{
    Serializer f;
    f.putU64(fnv1a(body.data(), body.size()));
    body += f.data();
    return body;
}

/** Overwrite the u64 at @p at of @p body with @p v, little-endian. */
void
putU64At(std::string &body, std::size_t at, std::uint64_t v)
{
    Serializer s;
    s.putU64(v);
    body.replace(at, 8, s.data());
}

std::string
pseudoRandomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::string out(n, '\0');
    for (char &c : out)
        c = static_cast<char>(rng.next() & 0xff);
    return out;
}

/** Empty when both readers agree on @p file in @p withPayload mode. */
std::string
resultDiff(const std::string &file, bool withPayload)
{
    const CheckpointLoadResult got =
        CheckpointSlotAccess::read(file, withPayload);
    const CheckpointLoadResult want = ref::tryLoadSlot(file, withPayload);
    std::ostringstream os;
    if (got.ok != want.ok)
        os << "ok " << got.ok << " vs " << want.ok << "; ";
    if (got.error != want.error)
        os << "error '" << got.error << "' vs '" << want.error << "'; ";
    if (got.sequence != want.sequence)
        os << "sequence " << got.sequence << " vs " << want.sequence
           << "; ";
    if (got.fingerprint != want.fingerprint)
        os << "fingerprint sizes " << got.fingerprint.size() << " vs "
           << want.fingerprint.size() << "; ";
    if (got.payload != want.payload)
        os << "payload sizes " << got.payload.size() << " vs "
           << want.payload.size() << "; ";
    if (got.slotFile != want.slotFile)
        os << "slot file '" << got.slotFile << "' vs '" << want.slotFile
           << "'; ";
    if (got.corruptRejected != want.corruptRejected)
        os << "corruptRejected differs; ";
    return os.str();
}

/** Write @p bytes to @p slot and hold both readers' modes to agree. */
void
expectSame(const SlotFile &slot, const std::string &bytes,
           const std::string &what)
{
    slot.write(bytes);
    EXPECT_EQ(resultDiff(slot.path(), false), "") << "scan: " << what;
    EXPECT_EQ(resultDiff(slot.path(), true), "") << "load: " << what;
}

TEST(SlotLockstep, ValidSlots)
{
    const SlotFile slot("valid");
    const std::string big = pseudoRandomBytes(
        3 * CheckpointSlotAccess::readChunk + 123, 7);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"fp", "payload-bytes"},
        {"", "x"},
        {"fp", ""},
        {"mct-ckpt-fp-v2;mode=eval", big},
        {std::string(300, 'f'), big.substr(0, 5000)},
    };
    for (const auto &[fp, payload] : cases) {
        const std::string bytes = savedSlot(fp, payload);
        expectSame(slot, bytes,
                   "valid, fingerprint " + std::to_string(fp.size()) +
                       " bytes, payload " +
                       std::to_string(payload.size()));
        const CheckpointLoadResult r =
            CheckpointSlotAccess::read(slot.path(), true);
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.payload, payload);
    }
}

TEST(SlotLockstep, FingerprintLongerThanTheReadBuffer)
{
    const SlotFile slot("longfp");
    const std::string fp =
        pseudoRandomBytes(CheckpointSlotAccess::readChunk + 1, 3);
    const std::string bytes = savedSlot(fp, "after the fingerprint");
    expectSame(slot, bytes, "long fingerprint");
    const CheckpointLoadResult r =
        CheckpointSlotAccess::read(slot.path(), true);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.fingerprint, fp);
}

TEST(SlotLockstep, Truncations)
{
    const SlotFile slot("cut");
    const std::string small = savedSlot("fp-abc", pseudoRandomBytes(90, 1));
    for (std::size_t n = 0; n <= 80; ++n)
        expectSame(slot, small.substr(0, n),
                   "cut to " + std::to_string(n) + " bytes");
    const std::string big = savedSlot(
        "fp", pseudoRandomBytes(2 * CheckpointSlotAccess::readChunk + 5, 2));
    for (const std::string *bytes : {&small, &big}) {
        for (std::size_t k = 1; k <= 16; ++k)
            expectSame(slot, bytes->substr(0, bytes->size() - k),
                       "last " + std::to_string(k) + " of " +
                           std::to_string(bytes->size()) + " cut");
    }
}

TEST(SlotLockstep, FlippedBytes)
{
    const SlotFile slot("flip");
    const std::string fp = "fingerprint";
    const std::string bytes =
        savedSlot(fp, pseudoRandomBytes(CheckpointSlotAccess::readChunk +
                                            999,
                                        4));
    const std::size_t header = fpLenAt + 8 + fp.size() + 8;
    const std::size_t footer = bytes.size() - 8;
    std::vector<std::size_t> offsets;
    for (std::size_t at = 0; at < header; ++at)
        offsets.push_back(at);
    for (std::size_t at = footer; at < bytes.size(); ++at)
        offsets.push_back(at);
    for (std::size_t k = 0; k < 64; ++k)
        offsets.push_back(header + k * (footer - header - 1) / 63);
    for (const std::size_t at : offsets) {
        std::string flipped = bytes;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
        expectSame(slot, flipped, "byte " + std::to_string(at) + " flipped");
        if (at < footer) {
            // The same damage under a footer that matches it reaches
            // the header checks.
            expectSame(slot, withFooter(flipped.substr(0, footer)),
                       "byte " + std::to_string(at) +
                           " flipped, footer recomputed");
        }
    }
}

TEST(SlotLockstep, RewrittenLengths)
{
    const SlotFile slot("lengths");
    const std::string fp = "fp-lengths";
    const std::string bytes = savedSlot(fp, pseudoRandomBytes(4000, 5));
    const std::string body = bytes.substr(0, bytes.size() - 8);
    const std::size_t payloadLenAt = fpLenAt + 8 + fp.size();
    const std::uint64_t payloadLen = body.size() - payloadLenAt - 8;
    for (const std::uint64_t len :
         {payloadLen - 1, payloadLen + 1, std::uint64_t{0},
          std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
        std::string b = body;
        putU64At(b, payloadLenAt, len);
        expectSame(slot, withFooter(b),
                   "payload length " + std::to_string(len));
    }
    for (const std::uint64_t len :
         {std::uint64_t{0}, fp.size() - 1, fp.size() + 1,
          fp.size() + 8, body.size() - fpLenAt - 8,
          body.size() - fpLenAt - 7, std::uint64_t{1} << 63,
          ~std::uint64_t{0} - 20, ~std::uint64_t{0}}) {
        std::string b = body;
        putU64At(b, fpLenAt, len);
        expectSame(slot, withFooter(b),
                   "fingerprint length " + std::to_string(len));
    }
}

TEST(SlotLockstep, TrailingEmptyAndMissing)
{
    const SlotFile slot("tail");
    const std::string bytes = savedSlot("fp", "payload");
    expectSame(slot, bytes + "xyz", "trailing bytes");
    expectSame(slot, withFooter(bytes + "xyz"),
               "trailing bytes, footer recomputed");
    expectSame(slot, "", "empty file");
    std::remove(slot.path().c_str());
    EXPECT_EQ(resultDiff(slot.path(), false), "") << "scan: missing";
    EXPECT_EQ(resultDiff(slot.path(), true), "") << "load: missing";
}

} // namespace
} // namespace mct
