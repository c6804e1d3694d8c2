/**
 * @file
 * Dictionary encoding: maps a value sequence to (unique-value dictionary,
 * integer code per value), the first step of a Parquet-style column
 * chunk encoding. Codes are then RLE/bit-packed by the format writer.
 */
#ifndef FUSION_CODEC_DICTIONARY_H
#define FUSION_CODEC_DICTIONARY_H

#include <bit>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fusion::codec {

/**
 * Builds a dictionary over values of type T (first-seen order) and the
 * corresponding code stream. T must be hashable and equality-comparable.
 * Doubles are keyed by bit pattern, so -0.0 and 0.0 get their own
 * entries, NaNs of one bit pattern share one, and decoding returns
 * every value bit-exactly.
 */
template <typename T>
class DictionaryEncoder
{
  public:
    /** Appends one value; returns its dictionary code. */
    uint32_t
    add(const T &value)
    {
        auto [it, inserted] = index_.try_emplace(
            key(value), static_cast<uint32_t>(dict_.size()));
        if (inserted)
            dict_.push_back(value);
        codes_.push_back(it->second);
        return it->second;
    }

    const std::vector<T> &dictionary() const { return dict_; }
    const std::vector<uint32_t> &codes() const { return codes_; }
    size_t cardinality() const { return dict_.size(); }
    size_t valueCount() const { return codes_.size(); }

  private:
    using Key = std::conditional_t<std::is_same_v<T, double>, uint64_t, T>;

    static decltype(auto)
    key(const T &value)
    {
        if constexpr (std::is_same_v<T, double>)
            return std::bit_cast<uint64_t>(value);
        else
            return (value); // by reference: no string copy per lookup
    }

    std::unordered_map<Key, uint32_t> index_;
    std::vector<T> dict_;
    std::vector<uint32_t> codes_;
};

/** Expands dictionary codes back into values. */
template <typename T>
Result<std::vector<T>>
dictionaryDecode(const std::vector<T> &dict,
                 const std::vector<uint64_t> &codes)
{
    std::vector<T> out;
    out.reserve(codes.size());
    for (uint64_t code : codes) {
        if (code >= dict.size())
            return Status::corruption("dictionary code out of range");
        out.push_back(dict[code]);
    }
    return out;
}

} // namespace fusion::codec

#endif // FUSION_CODEC_DICTIONARY_H
