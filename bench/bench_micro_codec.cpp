/**
 * @file
 * google-benchmark microbenchmarks for the codec substrate's encode
 * side: Snappy compression, RLE encoding and bit packing. The decode
 * side is timed by bench_kernels.
 */
#include <benchmark/benchmark.h>

#include "codec/bitpack.h"
#include "codec/rle.h"
#include "codec/snappy.h"
#include "common/random.h"

using namespace fusion;

namespace {

Bytes
makeInput(size_t size, double run_probability)
{
    Rng rng(size);
    Bytes input(size);
    size_t i = 0;
    while (i < input.size()) {
        if (rng.uniform() < run_probability) {
            size_t run = std::min<size_t>(input.size() - i,
                                          rng.uniformInt(8, 64));
            uint8_t v = static_cast<uint8_t>(rng.next());
            for (size_t j = 0; j < run; ++j)
                input[i++] = v;
        } else {
            input[i++] = static_cast<uint8_t>(rng.next());
        }
    }
    return input;
}

void
BM_SnappyCompress(benchmark::State &state)
{
    Bytes input = makeInput(static_cast<size_t>(state.range(0)), 0.7);
    for (auto _ : state) {
        Bytes out = codec::snappyCompress(Slice(input));
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_SnappyCompress)->Arg(64 << 10)->Arg(1 << 20);

void
BM_RleEncode(benchmark::State &state)
{
    Rng rng(7);
    std::vector<uint64_t> values(100000);
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = (i / 50) % 16; // long runs of 4-bit codes
    for (auto _ : state) {
        Bytes out = codec::rleEncode(values, 4);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            values.size());
}
BENCHMARK(BM_RleEncode);

void
BM_BitPack(benchmark::State &state)
{
    Rng rng(9);
    const int width = static_cast<int>(state.range(0));
    std::vector<uint64_t> values(100000);
    for (auto &v : values)
        v = rng.next() & ((1ULL << width) - 1);
    for (auto _ : state) {
        Bytes out;
        codec::BitPacker packer(out, width);
        for (uint64_t v : values)
            packer.put(v);
        packer.flush();
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            values.size());
}
BENCHMARK(BM_BitPack)->Arg(2)->Arg(9)->Arg(17);

} // namespace

BENCHMARK_MAIN();
