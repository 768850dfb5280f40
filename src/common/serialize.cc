#include "common/serialize.hh"

#include <bit>
#include <cstring>

namespace mct
{

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

namespace
{

/** @p v's bytes, least significant first, on any host. */
template <typename T>
T
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

/** Append @p v's little-endian bytes to @p buf in one copy. */
template <typename T>
void
appendWord(std::string &buf, T v)
{
    v = littleEndian(v);
    buf.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

/** Read the little-endian word at @p at in one copy. */
template <typename T>
T
loadWord(const unsigned char *at)
{
    T v = 0;
    std::memcpy(&v, at, sizeof(T));
    return littleEndian(v);
}

} // namespace

void
Serializer::putU32(std::uint32_t v)
{
    appendWord(buf, v);
}

void
Serializer::putU64(std::uint64_t v)
{
    appendWord(buf, v);
}

void
Serializer::putF64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putStr(std::string_view v)
{
    putU64(v.size());
    buf.append(v.data(), v.size());
}

const unsigned char *
Deserializer::take(std::size_t count)
{
    if (!good || count > n - pos) {
        good = false;
        return nullptr;
    }
    const unsigned char *at = p + pos;
    pos += count;
    return at;
}

std::uint8_t
Deserializer::getU8()
{
    const unsigned char *at = take(1);
    return at ? *at : 0;
}

std::uint32_t
Deserializer::getU32()
{
    const unsigned char *at = take(4);
    if (!at)
        return 0;
    return loadWord<std::uint32_t>(at);
}

std::uint64_t
Deserializer::getU64()
{
    const unsigned char *at = take(8);
    if (!at)
        return 0;
    return loadWord<std::uint64_t>(at);
}

double
Deserializer::getF64()
{
    const std::uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string_view
Deserializer::getStrView()
{
    const std::uint64_t len = getU64();
    if (!good || len > n - pos) {
        good = false;
        return {};
    }
    const unsigned char *at = take(static_cast<std::size_t>(len));
    return {reinterpret_cast<const char *>(at),
            static_cast<std::size_t>(len)};
}

std::string
Deserializer::getStr()
{
    return std::string(getStrView());
}

} // namespace mct
