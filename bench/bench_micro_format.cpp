/**
 * @file
 * google-benchmark microbenchmarks for the columnar format: chunk
 * encoding, full file write/read, and footer parsing — the data-plane
 * costs behind the stores' CPU model. bench_kernels times chunk decode.
 */
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "format/chunk_codec.h"
#include "format/reader.h"
#include "format/writer.h"
#include "workload/lineitem.h"

using namespace fusion;

namespace {

format::ColumnData
lowCardinalityColumn(size_t n)
{
    Rng rng(1);
    format::ColumnData col(format::PhysicalType::kInt64);
    for (size_t i = 0; i < n; ++i)
        col.append(rng.uniformInt(0, 15));
    return col;
}

format::ColumnData
highCardinalityColumn(size_t n)
{
    Rng rng(2);
    format::ColumnData col(format::PhysicalType::kDouble);
    for (size_t i = 0; i < n; ++i)
        col.append(rng.uniform());
    return col;
}

void
BM_EncodeChunkDictionary(benchmark::State &state)
{
    auto col = lowCardinalityColumn(100000);
    for (auto _ : state) {
        auto encoded = format::encodeChunk(col, {});
        benchmark::DoNotOptimize(encoded);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            100000);
}
BENCHMARK(BM_EncodeChunkDictionary);

void
BM_EncodeChunkPlain(benchmark::State &state)
{
    auto col = highCardinalityColumn(100000);
    for (auto _ : state) {
        auto encoded = format::encodeChunk(col, {});
        benchmark::DoNotOptimize(encoded);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            100000);
}
BENCHMARK(BM_EncodeChunkPlain);

void
BM_WriteLineitemFile(benchmark::State &state)
{
    auto table = workload::makeLineitemTable(20000, 3);
    for (auto _ : state) {
        format::WriterOptions options;
        options.rowGroupRows = 2000;
        auto file = format::writeTable(table, options);
        benchmark::DoNotOptimize(file);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            20000);
}
BENCHMARK(BM_WriteLineitemFile);

void
BM_OpenAndReadFile(benchmark::State &state)
{
    auto file = workload::buildLineitemFile(20000, 3);
    FUSION_CHECK(file.isOk());
    for (auto _ : state) {
        auto reader = format::FileReader::open(Slice(file.value().bytes));
        auto table = reader.value().readTable();
        benchmark::DoNotOptimize(table);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            20000);
}
BENCHMARK(BM_OpenAndReadFile);

void
BM_ParseFooter(benchmark::State &state)
{
    auto file = workload::buildLineitemFile(20000, 3);
    FUSION_CHECK(file.isOk());
    Bytes footer = file.value().metadata.serialize();
    for (auto _ : state) {
        auto meta = format::FileMetadata::deserialize(Slice(footer));
        benchmark::DoNotOptimize(meta);
    }
}
BENCHMARK(BM_ParseFooter);

} // namespace

BENCHMARK_MAIN();
