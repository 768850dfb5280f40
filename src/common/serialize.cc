#include "common/serialize.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>

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
Serializer::grow(std::size_t n)
{
    if (n > SIZE_MAX / 2 - len)
        throw std::bad_alloc();
    const std::size_t want = std::max({cap * 2, len + n, std::size_t{256}});
    void *const moved = std::realloc(buf, want);
    if (!moved)
        throw std::bad_alloc();
    buf = static_cast<char *>(moved);
    cap = want;
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
