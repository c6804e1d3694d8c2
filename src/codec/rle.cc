#include "rle.h"

#include <cstring>

#include "bitpack.h"
#include "common/serde.h"

namespace fusion::codec {

namespace {

// Runs of at least this many equal values are emitted as RLE; shorter
// stretches accumulate into bit-packed literal groups.
constexpr size_t kMinRleRun = 8;
// Cap literal runs so a corrupt header cannot demand a huge allocation.
constexpr size_t kMaxLiteralRun = 1 << 24;

void
putRleValue(Bytes &out, uint64_t value, int width)
{
    int nbytes = (width + 7) / 8;
    for (int i = 0; i < nbytes; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
emitLiterals(Bytes &out, const std::vector<uint64_t> &buf, int width)
{
    if (buf.empty())
        return;
    BinaryWriter writer(out);
    writer.putVarU64((static_cast<uint64_t>(buf.size()) << 1) | 1);
    BitPacker packer(out, width);
    for (uint64_t v : buf)
        packer.put(v);
    packer.flush();
}

} // namespace

Bytes
rleEncode(const std::vector<uint64_t> &values, int width)
{
    Bytes out;
    BinaryWriter writer(out);
    std::vector<uint64_t> literals;

    size_t i = 0;
    const size_t n = values.size();
    while (i < n) {
        // Measure the run of equal values starting at i.
        size_t run = 1;
        while (i + run < n && values[i + run] == values[i])
            ++run;
        if (run >= kMinRleRun) {
            emitLiterals(out, literals, width);
            literals.clear();
            writer.putVarU64(run << 1);
            putRleValue(out, values[i], width);
            i += run;
        } else {
            for (size_t j = 0; j < run; ++j)
                literals.push_back(values[i + j]);
            i += run;
        }
    }
    emitLiterals(out, literals, width);
    return out;
}

RleReader::RleReader(Slice input, int width, size_t count)
    : reader_(input), width_(width), remaining_(count)
{
    FUSION_CHECK(width >= 0 && width <= 64);
}

Status
RleReader::next(RleRun &run)
{
    auto header = reader_.getVarU64();
    if (!header.isOk())
        return header.status();
    const uint64_t h = header.value();
    const uint64_t n = h >> 1;
    run.packed = (h & 1) != 0;
    if (run.packed) {
        if (n == 0 || n > kMaxLiteralRun)
            return Status::corruption("bad RLE literal count");
        if (n > remaining_)
            return Status::corruption("RLE literals exceed value count");
        auto raw = reader_.getRaw((n * width_ + 7) / 8);
        if (!raw.isOk())
            return raw.status();
        run.bits = raw.value();
    } else {
        if (n == 0)
            return Status::corruption("zero-length RLE run");
        if (n > remaining_)
            return Status::corruption("RLE run exceeds value count");
        auto raw = reader_.getRaw((width_ + 7) / 8);
        if (!raw.isOk())
            return raw.status();
        run.value = 0;
        std::memcpy(&run.value, raw.value().data(), raw.value().size());
    }
    run.count = static_cast<size_t>(n);
    remaining_ -= run.count;
    return Status::ok();
}

Result<std::vector<uint64_t>>
rleDecode(Slice input, int width, size_t count)
{
    std::vector<uint64_t> out;
    RleReader runs(input, width, count);
    RleRun run;
    while (runs.remaining() > 0) {
        FUSION_RETURN_IF_ERROR(runs.next(run));
        if (!run.packed) {
            out.insert(out.end(), run.count, run.value);
            continue;
        }
        const size_t at = out.size();
        out.resize(at + run.count);
        FUSION_RETURN_IF_ERROR(BitUnpacker(run.bits, width)
                                   .getMany(run.count, out.data() + at));
    }
    return out;
}

} // namespace fusion::codec
