/**
 * @file
 * Per-object bookkeeping: the stripe layout, block placement, and the
 * chunk location map (paper §5, "Metadata Management"). The manifest is
 * what Fusion replicates k+1 ways; in the simulator it lives with the
 * store and its durability is modeled, not enforced.
 */
#ifndef FUSION_STORE_MANIFEST_H
#define FUSION_STORE_MANIFEST_H

#include <map>
#include <string>
#include <vector>

#include "fac/layout.h"
#include "format/metadata.h"

namespace fusion::store {

/** Where one piece of a chunk physically lives. */
struct PieceLocation {
    size_t stripe = 0;      // stripe index within the object
    size_t blockIndex = 0;  // data block index within the stripe [0, k)
    uint64_t blockOffset = 0; // byte offset of the piece inside the block
    uint64_t chunkOffset = 0; // byte offset of the piece inside the chunk
    uint64_t size = 0;
};

/**
 * Generation-qualified object name used in block keys, delta-segment
 * keys, chunk-heat keys and scheduler share keys: the bare name for
 * generation 0 (so pre-lifecycle key formats are unchanged),
 * "name@g<N>" afterwards.
 */
std::string shareName(const std::string &name, uint64_t generation);

/** Complete placement record for one stored object. */
struct ObjectManifest {
    std::string name;
    uint64_t objectSize = 0;
    bool isFpax = false;
    format::FileMetadata fileMeta; // valid when isFpax

    /**
     * Base-layout generation. 0 for the original put(); compaction
     * re-encodes base+deltas under generation+1 and swaps the manifest
     * atomically. Block keys and scheduler share keys embed the
     * generation (for g > 0) so in-flight shared scans against a
     * superseded generation can never alias the new one.
     */
    uint64_t generation = 0;

    /**
     * Chunk ids the heat-driven re-stripe policy chose to co-locate in
     * dedicated leading stripes at compaction time. Empty when the
     * layout was not heat-informed.
     */
    std::vector<uint32_t> hotChunkIds;

    fac::ObjectLayout layout;
    /** Chunk extents the layout was built over, indexed by chunk id.
     *  For fpax objects: the column chunks in file order, plus two
     *  pseudo-chunks for the file header and footer bytes. */
    std::vector<fac::ChunkExtent> extents;
    /** Ids of the pseudo-chunks (header, footer); empty if none. */
    std::vector<uint32_t> metaChunkIds;

    /** Node ids per stripe for all n blocks (k data + n-k parity). */
    std::vector<std::vector<size_t>> stripeNodes;

    /** Location map: pieces of each chunk id, in chunk-offset order. */
    std::vector<std::vector<PieceLocation>> chunkPieces;

    /** One materialized (non-implicit-zero) block of this object. */
    struct BlockRef {
        size_t stripe = 0;
        size_t blockIndex = 0; // [0, n): data and parity
        uint64_t size = 0;     // true (unpadded) size
    };

    /**
     * Node shard of the location map: every block of this object that
     * lives on a given node, sorted by (stripe, blockIndex). Lets
     * repair and placement queries touch only one node's blocks instead
     * of scanning stripes x n — the O(nodes) walk the 100+-node
     * experiments cannot afford. Sorted (std::map) so iteration is
     * deterministic wherever a caller walks all shards.
     */
    std::map<size_t, std::vector<BlockRef>> nodeBlocks;

    /** Number of column chunks (excluding pseudo-chunks). */
    size_t
    numDataChunks() const
    {
        return extents.size() - metaChunkIds.size();
    }

    /** Chunk id for (row group, column) of an fpax object. */
    uint32_t
    chunkIdFor(size_t row_group, size_t column) const
    {
        return static_cast<uint32_t>(
            row_group * fileMeta.schema.numColumns() + column);
    }

    /** Distinct node ids storing pieces of the given chunk (cached by
     *  buildLocationMap; O(1) per call). */
    const std::vector<size_t> &nodesForChunk(uint32_t chunk_id) const;

    /** This object's blocks on `node_id` (empty vector when none). */
    const std::vector<BlockRef> &blocksOnNode(size_t node_id) const;

    /** Storage key of a block on its node. */
    std::string blockKey(size_t stripe, size_t block_index) const;

    /** shareName(name, generation). */
    std::string shareName() const;

    /** True when the re-stripe policy co-located this chunk. */
    bool isHotColocated(uint32_t chunk_id) const;

    /**
     * Derives chunkPieces, the per-chunk node cache and the per-node
     * block shards from the layout. Must be called after layout,
     * extents and stripeNodes are set.
     */
    void buildLocationMap();

  private:
    /** Distinct nodes per chunk id, derived by buildLocationMap. */
    std::vector<std::vector<size_t>> chunkNodes_;
};

} // namespace fusion::store

#endif // FUSION_STORE_MANIFEST_H
