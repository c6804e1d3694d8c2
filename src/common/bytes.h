/**
 * @file
 * Byte-buffer aliases and a non-owning byte view (Slice).
 */
#ifndef FUSION_COMMON_BYTES_H
#define FUSION_COMMON_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "status.h"

namespace fusion {

// Every on-disk integer is little-endian. The decode kernels copy those
// bytes straight into native integers, so they assume a little-endian
// host; there is no byte-swapping fork.
static_assert(std::endian::native == std::endian::little,
              "decode kernels assume a little-endian host");

/** Loads a T from `p`, which need not be aligned for T. */
template <typename T>
inline T
loadUnaligned(const uint8_t *p)
{
    T v{};
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Owning, contiguous, resizable byte buffer. */
using Bytes = std::vector<uint8_t>;

/**
 * Non-owning view over a contiguous range of bytes. The underlying
 * storage must outlive the Slice. Mirrors the subset of std::span we
 * need plus convenience constructors from Bytes and std::string.
 */
class Slice
{
  public:
    Slice() = default;
    Slice(const uint8_t *data, size_t size) : data_(data), size_(size) {}
    Slice(const Bytes &buf) : data_(buf.data()), size_(buf.size()) {}
    Slice(const std::string &s)
        : data_(reinterpret_cast<const uint8_t *>(s.data())), size_(s.size())
    {
    }

    const uint8_t *data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    uint8_t
    operator[](size_t i) const
    {
        FUSION_CHECK(i < size_);
        return data_[i];
    }

    /** Sub-view [offset, offset+len); len is clamped to the slice end. */
    Slice
    subslice(size_t offset, size_t len = SIZE_MAX) const
    {
        FUSION_CHECK(offset <= size_);
        size_t n = std::min(len, size_ - offset);
        return Slice(data_ + offset, n);
    }

    /** Copies the viewed bytes into an owning buffer. */
    Bytes toBytes() const { return Bytes(data_, data_ + size_); }

    std::string
    toString() const
    {
        return std::string(reinterpret_cast<const char *>(data_), size_);
    }

    bool
    operator==(const Slice &other) const
    {
        return size_ == other.size_ &&
               (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
    }

  private:
    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
};

/** Appends the contents of `src` to `dst`. */
inline void
appendBytes(Bytes &dst, Slice src)
{
    dst.insert(dst.end(), src.data(), src.data() + src.size());
}

} // namespace fusion

#endif // FUSION_COMMON_BYTES_H
