/**
 * @file
 * Predicate evaluation over decoded column chunks and, without
 * decoding, over opened ones; zone-map pruning over chunk statistics,
 * row selection and aggregate computation — the data-plane primitives
 * both stores execute (on a storage node when pushed down, on the
 * coordinator otherwise).
 */
#ifndef FUSION_QUERY_EVAL_H
#define FUSION_QUERY_EVAL_H

#include "ast.h"
#include "bitmap.h"
#include "format/chunk_codec.h"
#include "format/column.h"
#include "format/metadata.h"

namespace fusion::query {

/** Compares a boxed value against a literal under `op`. */
bool compareValues(const format::Value &lhs, CompareOp op,
                   const format::Value &rhs);

/**
 * Evaluates <column op literal> over every row of a decoded chunk.
 * kInvalidArgument if the literal type is incompatible with the column.
 */
Result<Bitmap> evalPredicate(const format::ColumnData &column, CompareOp op,
                             const format::Value &literal);

/**
 * evalPredicate over an opened chunk, without decoding it: a dictionary
 * chunk evaluates the predicate once per dictionary entry and expands
 * the verdicts through its RLE/bit-packed codes; a plain chunk scans its
 * pages in place. Equal to evalPredicate over format::decodeChunk's
 * output; kCorruption for a bad code stream, an out-of-range code or a
 * truncated string page.
 */
Result<Bitmap> evalPredicate(const format::ChunkView &chunk, CompareOp op,
                             const format::Value &literal);

/**
 * Boxed row-at-a-time reference implementation of evalPredicate (via
 * compareValues). Kept as the semantic oracle the word-wise typed
 * kernels are tested and benchmarked against.
 */
Result<Bitmap> evalPredicateReference(const format::ColumnData &column,
                                      CompareOp op,
                                      const format::Value &literal);

/**
 * Zone-map test: can any row of a chunk with the given min/max match
 * the predicate? False positives are fine; false negatives are not.
 */
bool zoneMapMayMatch(const format::ChunkMeta &meta, const Predicate &pred);

/**
 * Full chunk-skipping test: zone maps for ranges plus the chunk's
 * Bloom filter for equality predicates (when present and the literal
 * type matches the column's stored type).
 */
bool chunkMayMatch(const format::ChunkMeta &meta, const Predicate &pred);

/** Copies the rows of `column` whose bits are set into a new column. */
format::ColumnData selectRows(const format::ColumnData &column,
                              const Bitmap &rows);

/**
 * Computes an aggregate over a (already filtered) column. COUNT works
 * on any type; SUM/AVG/MIN/MAX require numeric columns.
 */
Result<double> computeAggregate(AggregateKind kind,
                                const format::ColumnData &values);

} // namespace fusion::query

#endif // FUSION_QUERY_EVAL_H
