/**
 * @file
 * Kernel microbenchmark + perf-trajectory tracker. Measures the hot
 * loops the performance layer optimizes — GF(256) multiply-accumulate
 * (legacy log/exp loop vs blocked scalar vs SIMD), Reed-Solomon
 * encode/reconstruct, the typed predicate/select/aggregate query
 * kernels, the decode kernels (Snappy, bit-unpacking, dictionary
 * and plain lineitem chunks; MB/s counts plain-encoded bytes out), the
 * encode side (Snappy compress, RLE encode, bit-packing, chunk encode,
 * file write, open + read and footer parse), FAC / padding / fixed
 * stripe construction and a fold's file extend (appended rows per
 * second) — and writes the numbers to BENCH_kernels.json so every
 * commit's kernel throughput is recorded.
 *
 * Usage:
 *   bench_kernels [--quick] [--out=PATH] [--check=BASELINE]
 *
 * --quick shortens each timing window (CI smoke mode). --check loads a
 * baseline JSON (same schema) and exits nonzero when any baseline
 * metric is missing or regressed by more than kTolerance.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/gate.h"
#include "benchutil/harness.h"
#include "codec/bitpack.h"
#include "codec/rle.h"
#include "codec/snappy.h"
#include "common/random.h"
#include "common/walltime.h"
#include "common/thread_pool.h"
#include "ec/reed_solomon.h"
#include "fac/constructors.h"
#include "format/chunk_codec.h"
#include "format/column.h"
#include "format/reader.h"
#include "format/writer.h"
#include "query/eval.h"
#include "workload/chunk_models.h"
#include "workload/lineitem.h"

using namespace fusion;

namespace {

/** Kernel throughput is host-timed, so the gate allows 20% drift. */
constexpr double kTolerance = 0.2;

double
now()
{
    return walltime::monotonicSeconds();
}

/**
 * Runs `fn` (which processes `bytes_per_call` bytes) repeatedly for at
 * least `min_seconds` after one warmup call, returning bytes/second.
 */
template <typename Fn>
double
throughput(double min_seconds, double bytes_per_call, Fn &&fn)
{
    fn(); // warmup: page in buffers, build tables
    size_t calls = 0;
    double start = now(), elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = now() - start;
    } while (elapsed < min_seconds);
    return static_cast<double>(calls) * bytes_per_call / elapsed;
}

/** The pre-optimization branchy log/exp loop, kept verbatim as the
 *  fixed reference the tracked speedup is measured against. */
void
legacyMulAccumulate(const ec::Gf256 &gf, uint8_t *dst, const uint8_t *src,
                    size_t len, uint8_t c)
{
    if (c == 0)
        return;
    for (size_t i = 0; i < len; ++i) {
        uint8_t s = src[i];
        if (s)
            dst[i] ^= gf.mul(c, s); // table hop per byte, branch per byte
    }
}

Bytes
randomBytes(size_t len, uint64_t seed)
{
    Rng rng(seed);
    Bytes out(len);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::obsInit(argc, argv);
    benchutil::GateFlags flags;
    flags.out = "BENCH_kernels.json";
    if (!benchutil::parseGateFlags(argc, argv, flags))
        return 2;
    const double window = flags.quick ? 0.05 : 0.4;
    benchutil::Metrics metrics;
    auto add = [&metrics](const std::string &name, double v) {
        std::printf("  %-32s %12.3f\n", name.c_str(), v);
        metrics.emplace_back(name, v);
    };

    std::printf("== bench_kernels (simd=%s, threads=%zu%s) ==\n",
                ec::simdLevelName(ec::Gf256::bestSimdLevel()),
                ThreadPool::shared().threadCount(),
                flags.quick ? ", quick" : "");

    // ---- GF(256) multiply-accumulate ----
    const size_t kLen = 1 << 20;
    const auto &gf = ec::Gf256::instance();
    Bytes src = randomBytes(kLen, 1), dst = randomBytes(kLen, 2);
    double legacy = throughput(window, kLen, [&]() {
        legacyMulAccumulate(gf, dst.data(), src.data(), kLen, 0x57);
    });
    double scalar = throughput(window, kLen, [&]() {
        gf.mulAccumulate(dst.data(), src.data(), kLen, 0x57,
                         ec::SimdLevel::kScalar);
    });
    double simd = throughput(window, kLen, [&]() {
        gf.mulAccumulate(dst.data(), src.data(), kLen, 0x57);
    });
    add("gf_mac_legacy_gbps", legacy / 1e9);
    add("gf_mac_scalar_gbps", scalar / 1e9);
    add("gf_mac_simd_gbps", simd / 1e9);
    add("gf_mac_speedup_vs_legacy", simd / legacy);

    // ---- Reed-Solomon encode / reconstruct ----
    for (auto [n, k] : {std::pair<size_t, size_t>{9, 6}, {14, 10}}) {
        auto rs = ec::ReedSolomon::create(n, k).value();
        std::vector<Bytes> blocks;
        for (size_t j = 0; j < k; ++j)
            blocks.push_back(randomBytes(1 << 20, 100 + j));
        std::vector<Slice> views(blocks.begin(), blocks.end());
        double enc = throughput(window, double(k) * (1 << 20), [&]() {
            auto parity = rs.encodeParity(views);
            asm volatile("" : : "r"(parity.data()) : "memory");
        });
        auto stripe = ec::encodeStripe(rs, blocks).value();
        // Built once: each call erases (and so rebuilds) only the n - k
        // slots it is credited for, so no shard copy is timed.
        std::vector<std::optional<Bytes>> shards(stripe.blocks.begin(),
                                                 stripe.blocks.end());
        double rec = throughput(window, double(n - k) * (1 << 20), [&]() {
            for (size_t e = 0; e < n - k; ++e)
                shards[e].reset();
            auto st = rs.reconstruct(shards, stripe.blockSize);
            asm volatile("" : : "r"(&st) : "memory");
        });
        char name[64];
        std::snprintf(name, sizeof(name), "rs_encode_%zu_%zu_gbps", n, k);
        add(name, enc / 1e9);
        std::snprintf(name, sizeof(name), "rs_reconstruct_%zu_%zu_gbps", n,
                      k);
        add(name, rec / 1e9);
    }

    // ---- predicate / select / aggregate kernels ----
    const size_t kRows = 1 << 20;
    Rng rng(7);
    format::ColumnData i64(format::PhysicalType::kInt64);
    format::ColumnData f64(format::PhysicalType::kDouble);
    format::ColumnData i32(format::PhysicalType::kInt32);
    for (size_t i = 0; i < kRows; ++i) {
        i64.append(rng.uniformInt(0, 1'000'000));
        f64.append(rng.uniformReal(0.0, 1.0));
        i32.append(static_cast<int32_t>(rng.uniformInt(0, 1 << 20)));
    }
    auto pred_rate = [&](const format::ColumnData &col,
                         const format::Value &lit) {
        return throughput(window, kRows, [&]() {
            auto bm = query::evalPredicate(col, query::CompareOp::kLt, lit);
            asm volatile("" : : "r"(&bm) : "memory");
        });
    };
    double ref = throughput(window, kRows, [&]() {
        auto bm = query::evalPredicateReference(
            i64, query::CompareOp::kLt, format::Value(int64_t{500'000}));
        asm volatile("" : : "r"(&bm) : "memory");
    });
    double p64 = pred_rate(i64, format::Value(int64_t{500'000}));
    add("predicate_boxed_mrows", ref / 1e6);
    add("predicate_int64_mrows", p64 / 1e6);
    add("predicate_double_mrows",
        pred_rate(f64, format::Value(0.5)) / 1e6);
    add("predicate_int32_mrows",
        pred_rate(i32, format::Value(int32_t{1 << 19})) / 1e6);
    add("predicate_speedup_vs_boxed", p64 / ref);

    auto half = query::evalPredicate(i64, query::CompareOp::kLt,
                                     format::Value(int64_t{500'000}))
                    .value();
    add("select_int64_mrows", throughput(window, kRows, [&]() {
                                  auto sel = query::selectRows(i64, half);
                                  asm volatile("" : : "r"(&sel) : "memory");
                              }) / 1e6);
    add("aggregate_sum_mrows", throughput(window, kRows, [&]() {
                                   auto s = query::computeAggregate(
                                       query::AggregateKind::kSum, f64);
                                   asm volatile("" : : "r"(&s) : "memory");
                               }) / 1e6);

    // ---- decode kernels: Snappy, bit-unpacking, whole chunks ----
    // Lineitem as the stores hold it: 60k rows in 10 row groups, so
    // every chunk is one 6000-value page.
    auto file = workload::buildLineitemFile(60'000, 42);
    FUSION_CHECK(file.isOk());
    const format::FileMetadata &meta = file.value().metadata;
    struct Chunk {
        Slice bytes;
        format::PhysicalType type;
    };
    std::vector<Chunk> dict_chunks, plain_chunks;
    // The same chunks decoded, as the writer's encode input.
    std::vector<format::ColumnData> dict_columns, plain_columns;
    double dict_bytes = 0, plain_bytes = 0;
    // Each column's plain values in row group 0, raw and compressed.
    std::vector<Bytes> raw_pages, pages;
    double page_bytes = 0;
    for (const format::ChunkMeta *c : meta.allChunks()) {
        Chunk chunk{Slice(file.value().bytes.data() + c->offset,
                          c->storedSize),
                    meta.schema.column(c->columnId).physical};
        bool dict = c->encoding == format::ChunkEncoding::kDictionary;
        (dict ? dict_chunks : plain_chunks).push_back(chunk);
        (dict ? dict_columns : plain_columns)
            .push_back(format::decodeChunk(chunk.bytes, chunk.type).value());
        (dict ? dict_bytes : plain_bytes) += static_cast<double>(c->plainSize);
        if (c->rowGroupId == 0) {
            Bytes plain = format::plainEncode(
                format::decodeChunk(chunk.bytes, chunk.type).value());
            page_bytes += static_cast<double>(plain.size());
            pages.push_back(codec::snappyCompress(Slice(plain)));
            raw_pages.push_back(std::move(plain));
        }
    }
    add("snappy_decompress_mb_per_s", throughput(window, page_bytes, [&]() {
            for (const Bytes &page : pages) {
                auto out = codec::snappyDecompress(Slice(page));
                asm volatile("" : : "r"(&out) : "memory");
            }
        }) / 1e6);

    const size_t kCodes = 1 << 16;
    const int kCodeWidth = 13;
    std::vector<uint64_t> codes(kCodes);
    Bytes packed;
    codec::BitPacker packer(packed, kCodeWidth);
    for (uint64_t &code : codes) {
        code = rng.next() & ((1u << kCodeWidth) - 1);
        packer.put(code);
    }
    packer.flush();
    std::vector<uint64_t> unpacked(kCodes);
    add("bitunpack_mvalues", throughput(window, kCodes, [&]() {
            codec::BitUnpacker unpacker(Slice(packed), kCodeWidth);
            auto st = unpacker.getMany(kCodes, unpacked.data());
            asm volatile("" : : "r"(&st), "r"(unpacked.data()) : "memory");
        }) / 1e6);

    auto decode_all = [&](const std::vector<Chunk> &chunks) {
        for (const Chunk &c : chunks) {
            auto col = format::decodeChunk(c.bytes, c.type);
            asm volatile("" : : "r"(&col) : "memory");
        }
    };
    add("decode_chunk_dict_mb_per_s",
        throughput(window, dict_bytes, [&]() { decode_all(dict_chunks); }) /
            1e6);
    add("decode_chunk_plain_mb_per_s",
        throughput(window, plain_bytes, [&]() { decode_all(plain_chunks); }) /
            1e6);

    // ---- encode side: the same pages and chunks, written ----
    add("snappy_compress_mb_per_s", throughput(window, page_bytes, [&]() {
            for (const Bytes &page : raw_pages) {
                auto out = codec::snappyCompress(Slice(page));
                asm volatile("" : : "r"(&out) : "memory");
            }
        }) / 1e6);
    std::vector<uint64_t> runs(kCodes);
    for (size_t i = 0; i < kCodes; ++i)
        runs[i] = (i / 50) % 16; // long runs of 4-bit codes
    add("rle_encode_mvalues", throughput(window, kCodes, [&]() {
            auto out = codec::rleEncode(runs, 4);
            asm volatile("" : : "r"(&out) : "memory");
        }) / 1e6);
    add("bitpack_mvalues", throughput(window, kCodes, [&]() {
            Bytes out;
            codec::BitPacker bit_packer(out, kCodeWidth);
            for (uint64_t code : codes)
                bit_packer.put(code);
            bit_packer.flush();
            asm volatile("" : : "r"(out.data()) : "memory");
        }) / 1e6);
    auto encode_all = [&](const std::vector<format::ColumnData> &columns) {
        for (const format::ColumnData &col : columns) {
            auto out = format::encodeChunk(col, {});
            asm volatile("" : : "r"(&out) : "memory");
        }
    };
    add("encode_chunk_dict_mb_per_s", throughput(window, dict_bytes, [&]() {
            encode_all(dict_columns);
        }) / 1e6);
    add("encode_chunk_plain_mb_per_s",
        throughput(window, plain_bytes, [&]() {
            encode_all(plain_columns);
        }) / 1e6);
    const format::Table table = workload::makeLineitemTable(20'000, 3);
    format::WriterOptions write_options;
    write_options.rowGroupRows = 2'000;
    add("file_write_krows_per_s",
        throughput(window, double(table.numRows()), [&]() {
            auto out = format::writeTable(table, write_options);
            asm volatile("" : : "r"(&out) : "memory");
        }) / 1e3);
    add("file_read_krows_per_s",
        throughput(window, double(meta.numRows), [&]() {
            auto reader = format::FileReader::open(Slice(file.value().bytes));
            auto out = reader.value().readTable();
            asm volatile("" : : "r"(&out) : "memory");
        }) / 1e3);
    const Bytes footer = meta.serialize();
    add("footer_parse_kper_s", throughput(window, 1.0, [&]() {
            auto out = format::FileMetadata::deserialize(Slice(footer));
            asm volatile("" : : "r"(&out) : "memory");
        }) / 1e3);

    // ---- stripe construction: FAC, padding and fixed layouts ----
    // Chunks laid out per second; the paper reports FAC taking 10s-100s
    // of microseconds per real object (§4.2).
    const auto zipf_chunks = workload::zipfChunkModel(1000, 0.5, 17);
    const auto lineitem_chunks = workload::lineitemChunkModel(5);
    auto layout_rate = [&](const std::vector<fac::ChunkExtent> &chunks,
                           auto &&build) {
        return throughput(window, double(chunks.size()), [&]() {
                   auto layout = build(chunks);
                   asm volatile("" : : "r"(&layout) : "memory");
               }) / 1e3;
    };
    auto fac_layout = [](const std::vector<fac::ChunkExtent> &chunks) {
        return fac::buildFacLayout(chunks, 9, 6);
    };
    add("fac_layout_zipf_kchunks_per_s", layout_rate(zipf_chunks, fac_layout));
    add("fac_layout_lineitem_kchunks_per_s",
        layout_rate(lineitem_chunks, fac_layout));
    add("padding_layout_kchunks_per_s",
        layout_rate(lineitem_chunks, [](const auto &chunks) {
            return fac::buildPaddingLayout(chunks, 9, 6, 100'000'000);
        }));
    add("fixed_layout_kchunks_per_s",
        layout_rate(lineitem_chunks, [](const auto &chunks) {
            return fac::buildFixedLayout(chunks, 9, 6, 100'000'000);
        }));

    // ---- fold: extend that file by one ingest fold's 4,000 rows ----
    // The ten full row groups copy through; only the appended rows are
    // encoded. krows/s counts appended rows, so a full re-encode of the
    // 64k merged rows scores far lower.
    const size_t kFoldRows = 4'000;
    const format::Table appended = workload::makeLineitemTable(kFoldRows, 43);
    auto base = format::FileReader::open(Slice(file.value().bytes));
    FUSION_CHECK(base.isOk());
    format::WriterOptions fold_options;
    fold_options.rowGroupRows = meta.rowGroups.front().numRows;
    add("file_extend_krows_per_s", throughput(window, kFoldRows, [&]() {
            auto out =
                format::extendFile(base.value(), appended, fold_options);
            asm volatile("" : : "r"(&out) : "memory");
        }) / 1e3);

    const std::string level = ec::simdLevelName(ec::Gf256::bestSimdLevel());
    return benchutil::writeAndCheck(
               flags, "kernels",
               {{"simd_level", "\"" + level + "\""},
                {"threads",
                 std::to_string(ThreadPool::shared().threadCount())},
                {"quick", flags.quick ? "true" : "false"}},
               metrics, kTolerance) > 0
               ? 1
               : 0;
}
