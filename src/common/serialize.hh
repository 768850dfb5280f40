/**
 * @file
 * Binary serialization codec for checkpoint/restore. Fixed-width
 * little-endian integers, bit-pattern doubles, and length-prefixed
 * strings make the byte stream deterministic across runs, which the
 * resume machinery depends on (a resumed run must re-produce the
 * exact bytes an uninterrupted run would have written).
 *
 * The stream carries no tags: the reader consumes exactly the bytes
 * the writer produced, in order. Every checkpointed class therefore
 * names its fields once, in one `template <class Ar> void io(Ar &ar)`
 * body that runs against either archive: Serializer writes each
 * field, Deserializer reads it back into the same member, so the two
 * directions cannot drift apart. The shared vocabulary:
 *
 *   u8 u32 u64 i64 f64 flag str (fields...)   fixed-width fields
 *   seq / seq32 (container, each)             u64 / u32 count + items
 *   check (expected, message...)              geometry that must match
 *   ring (head, held, cap)                    bounded ring cursors
 *   u64Below (field, limit)                   a u64 held in fewer bits
 *
 * The call names the wire width, not the member's type: a uint16_t
 * disturb count travels through u32 and an int threshold through i64.
 * Reading never trusts the stream: a count larger than the bytes left,
 * a ring cursor outside its ring or a value past its field's limit
 * fails the stream instead of allocating, indexing or truncating, and once the stream has failed every read
 * yields zero and every check is a no-op, so the first failure
 * reaches the caller's ok().
 */

#ifndef MCT_COMMON_SERIALIZE_HH
#define MCT_COMMON_SERIALIZE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace mct
{

/** 64-bit FNV-1a over a byte range; @p seed chains partial digests. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ULL);

/** @p v's bytes, least significant first, on any host. */
template <typename T>
constexpr T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 8)
            return __builtin_bswap64(v);
        else
            return __builtin_bswap32(v);
    }
    return v;
}

/** Wire types a check() value may take: bool, u32 or u64. */
template <typename T>
constexpr bool checkWidth = std::is_same_v<T, bool> ||
                            std::is_same_v<T, std::uint32_t> ||
                            std::is_same_v<T, std::uint64_t>;

/**
 * Append-only binary encoder. All integers are written little-endian
 * at fixed width; doubles are written as their IEEE-754 bit pattern.
 *
 * The bytes live in one malloc'd buffer grown with std::realloc, which
 * moves a large block by remapping its pages instead of copying them
 * and keeps the pages already touched; a failed allocation throws
 * std::bad_alloc.
 */
class Serializer
{
  public:
    /** Archive direction, for the rare io body that must branch. */
    static constexpr bool reading = false;

    Serializer() = default;
    Serializer(const Serializer &other) { *this = other; }
    Serializer(Serializer &&other) noexcept { *this = std::move(other); }
    ~Serializer() { std::free(buf); }

    Serializer &
    operator=(const Serializer &other)
    {
        if (this != &other) {
            len = 0;
            append(other.buf, other.len);
        }
        return *this;
    }

    Serializer &
    operator=(Serializer &&other) noexcept
    {
        if (this != &other) {
            std::free(buf);
            buf = std::exchange(other.buf, nullptr);
            len = std::exchange(other.len, 0);
            cap = std::exchange(other.cap, 0);
        }
        return *this;
    }

    void putU8(std::uint8_t v) { *room(1) = static_cast<char>(v); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU32(std::uint32_t v) { store(v); }
    void putU64(std::uint64_t v) { store(v); }
    void putI64(std::int64_t v) { putU64(static_cast<std::uint64_t>(v)); }
    void putF64(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }

    void
    putStr(std::string_view v)
    {
        putU64(v.size());
        append(v.data(), v.size());
    }

    template <typename... T>
    void u8(const T &...v) { (putU8(static_cast<std::uint8_t>(v)), ...); }

    template <typename... T>
    void u32(const T &...v)
    {
        (putU32(static_cast<std::uint32_t>(v)), ...);
    }

    template <typename... T>
    void u64(const T &...v)
    {
        (putU64(static_cast<std::uint64_t>(v)), ...);
    }

    template <typename... T>
    void i64(const T &...v)
    {
        (putI64(static_cast<std::int64_t>(v)), ...);
    }

    template <typename... T>
    void f64(const T &...v) { (putF64(static_cast<double>(v)), ...); }

    template <typename... T>
    void flag(const T &...v) { (putBool(static_cast<bool>(v)), ...); }

    template <typename... T>
    void str(const T &...v) { (putStr(v), ...); }

    /** Write the item count as u64, then visit every item. */
    template <typename Seq, typename Fn>
    void
    seq(Seq &items, Fn &&each)
    {
        putU64(items.size());
        for (auto &item : items)
            each(item);
    }

    /** seq() with a u32 count. */
    template <typename Seq, typename Fn>
    void
    seq32(Seq &items, Fn &&each)
    {
        putU32(static_cast<std::uint32_t>(items.size()));
        for (auto &item : items)
            each(item);
    }

    /** Write a geometry value the reader must find unchanged. */
    template <typename T, typename... Msg>
    void
    check(T expected, const Msg &...)
    {
        static_assert(checkWidth<T>, "check() takes bool, u32 or u64");
        if constexpr (std::is_same_v<T, bool>)
            putBool(expected);
        else if constexpr (std::is_same_v<T, std::uint32_t>)
            putU32(expected);
        else
            putU64(expected);
    }

    /** Write a ring's next-slot and held-count cursors. */
    void
    ring(std::size_t head, std::size_t held, std::size_t)
    {
        putU64(head);
        putU64(held);
    }

    /** Write a u64 the reader requires to be below a limit. */
    void u64Below(std::uint64_t v, std::uint64_t) { putU64(v); }

    /** The encoded bytes so far; the view lasts until the next put. */
    std::string_view data() const { return {buf, len}; }

    std::size_t size() const { return len; }

  private:
    char *buf = nullptr;
    std::size_t len = 0;
    std::size_t cap = 0;

    /** Claim the next @p n bytes, growing the buffer when short. */
    char *
    room(std::size_t n)
    {
        if (cap - len < n)
            grow(n);
        char *const at = buf + len;
        len += n;
        return at;
    }

    /** Make room for @p n more bytes: at least double the capacity. */
    void grow(std::size_t n);

    void
    append(const void *p, std::size_t n)
    {
        if (n != 0)
            std::memcpy(room(n), p, n);
    }

    template <typename T>
    void
    store(T v)
    {
        v = littleEndian(v);
        std::memcpy(room(sizeof v), &v, sizeof v);
    }
};

/**
 * Bounds-checked decoder over a byte range. A read past the end, a
 * count past the bytes left, or an out-of-ring cursor marks the
 * stream failed; from then on reads return zero values and checks
 * pass, and callers test ok() once after decoding. The checkpoint
 * loader verifies the checksum before any decoding, so a failed
 * stream means a format bug or a hostile payload whose footer was
 * recomputed.
 */
class Deserializer
{
  public:
    /** Archive direction, for the rare io body that must branch. */
    static constexpr bool reading = true;

    Deserializer(const void *data, std::size_t size)
        : p(static_cast<const unsigned char *>(data)), n(size)
    {}

    explicit Deserializer(std::string_view bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    bool getBool() { return getU8() != 0; }
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }
    double getF64();
    std::string getStr();
    /** A length-prefixed string read in place: it views the decoded
     *  buffer, which must outlive it. */
    std::string_view getStrView();

    template <typename... T>
    void u8(T &...v) { ((v = static_cast<T>(getU8())), ...); }

    template <typename... T>
    void u32(T &...v) { ((v = static_cast<T>(getU32())), ...); }

    template <typename... T>
    void u64(T &...v) { ((v = static_cast<T>(getU64())), ...); }

    template <typename... T>
    void i64(T &...v) { ((v = static_cast<T>(getI64())), ...); }

    template <typename... T>
    void f64(T &...v) { ((v = static_cast<T>(getF64())), ...); }

    template <typename... T>
    void flag(T &...v) { ((v = getBool()), ...); }

    template <typename... T>
    void str(T &...v) { ((v = getStr()), ...); }

    /** Read a u64 item count, then refill @p items through @p each. */
    template <typename Seq, typename Fn>
    void seq(Seq &items, Fn &&each) { fill(items, getU64(), each); }

    /** seq() with a u32 count. */
    template <typename Seq, typename Fn>
    void seq32(Seq &items, Fn &&each) { fill(items, getU32(), each); }

    /** Read a geometry value; panic with @p msg when it differs. */
    template <typename T, typename... Msg>
    void
    check(T expected, const Msg &...msg)
    {
        static_assert(checkWidth<T>, "check() takes bool, u32 or u64");
        if (!good)
            return;
        T got{};
        if constexpr (std::is_same_v<T, bool>)
            got = getBool();
        else if constexpr (std::is_same_v<T, std::uint32_t>)
            got = getU32();
        else
            got = getU64();
        if (good && got != expected)
            mct_panic(msg...);
    }

    /**
     * Read a ring's cursors: @p head must index the ring of @p cap
     * slots (0 when it has none) and @p held may not exceed it. A bad
     * value fails the stream and leaves both cursors at 0.
     */
    void
    ring(std::size_t &head, std::size_t &held, std::size_t cap)
    {
        u64(head, held);
        if (head >= std::max<std::size_t>(cap, 1) || held > cap)
            good = false;
        if (!good)
            head = held = 0;
    }

    /**
     * Read a u64 into a field that holds only values below @p limit:
     * a larger value fails the stream and reads as 0.
     */
    void
    u64Below(std::uint64_t &v, std::uint64_t limit)
    {
        v = getU64();
        if (v >= limit)
            good = false;
        if (!good)
            v = 0;
    }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return good; }

    /** True when every byte has been consumed (and no read failed). */
    bool atEnd() const { return good && pos == n; }

    std::size_t remaining() const { return n - pos; }

  private:
    const unsigned char *p;
    std::size_t n;
    std::size_t pos = 0;
    bool good = true;

    /** Reserve @p count bytes; returns nullptr and fails on underrun. */
    const unsigned char *take(std::size_t count);

    /**
     * Every item takes at least one byte, so a count above the bytes
     * left is hostile: fail the stream before allocating for it.
     */
    bool
    admit(std::uint64_t count)
    {
        good = good && count <= remaining();
        return good;
    }

    template <typename Seq, typename Fn>
    void
    fill(Seq &items, std::uint64_t count, Fn &each)
    {
        if (!admit(count))
            return;
        items.resize(static_cast<std::size_t>(count));
        for (auto &item : items)
            each(item);
    }

    /** A map's items are read as (key, value) pairs. */
    template <typename K, typename V, typename Fn>
    void
    fill(std::map<K, V> &items, std::uint64_t count, Fn &each)
    {
        if (!admit(count))
            return;
        items.clear();
        for (std::uint64_t i = 0; i < count && good; ++i) {
            std::pair<K, V> kv;
            each(kv);
            items.emplace(std::move(kv.first), std::move(kv.second));
        }
    }
};

} // namespace mct

#endif // MCT_COMMON_SERIALIZE_HH
