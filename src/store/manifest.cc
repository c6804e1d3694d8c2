#include "manifest.h"

#include <algorithm>

namespace fusion::store {

const std::vector<size_t> &
ObjectManifest::nodesForChunk(uint32_t chunk_id) const
{
    return chunkNodes_.at(chunk_id);
}

const std::vector<ObjectManifest::BlockRef> &
ObjectManifest::blocksOnNode(size_t node_id) const
{
    static const std::vector<BlockRef> kEmpty;
    auto it = nodeBlocks.find(node_id);
    return it == nodeBlocks.end() ? kEmpty : it->second;
}

std::string
ObjectManifest::blockKey(size_t stripe, size_t block_index) const
{
    return shareName() + "#s" + std::to_string(stripe) + "#b" +
           std::to_string(block_index);
}

std::string
shareName(const std::string &name, uint64_t generation)
{
    return generation == 0 ? name
                           : name + "@g" + std::to_string(generation);
}

std::string
ObjectManifest::shareName() const
{
    return store::shareName(name, generation);
}

bool
ObjectManifest::isHotColocated(uint32_t chunk_id) const
{
    return std::find(hotChunkIds.begin(), hotChunkIds.end(), chunk_id) !=
           hotChunkIds.end();
}

void
ObjectManifest::buildLocationMap()
{
    chunkPieces.assign(extents.size(), {});
    for (size_t s = 0; s < layout.stripes.size(); ++s) {
        const auto &stripe = layout.stripes[s];
        for (size_t b = 0; b < stripe.dataBlocks.size(); ++b) {
            uint64_t block_offset = 0;
            for (const auto &piece : stripe.dataBlocks[b].pieces) {
                if (!piece.isPadding()) {
                    chunkPieces.at(piece.chunkId)
                        .push_back({s, b, block_offset, piece.chunkOffset,
                                    piece.size});
                }
                block_offset += piece.size;
            }
        }
    }
    // Keep pieces of each chunk in chunk-offset order for reassembly.
    for (auto &pieces : chunkPieces) {
        std::sort(pieces.begin(), pieces.end(),
                  [](const PieceLocation &a, const PieceLocation &b) {
                      return a.chunkOffset < b.chunkOffset;
                  });
    }

    // Per-chunk node cache: pushdown planning asks for this once per
    // chunk per query, so derive it once instead of per call.
    chunkNodes_.assign(extents.size(), {});
    for (size_t c = 0; c < chunkPieces.size(); ++c) {
        auto &nodes = chunkNodes_[c];
        for (const auto &piece : chunkPieces[c]) {
            size_t node = stripeNodes.at(piece.stripe).at(piece.blockIndex);
            if (std::find(nodes.begin(), nodes.end(), node) == nodes.end())
                nodes.push_back(node);
        }
    }

    // Per-node block shards (data blocks at true size, parity full;
    // implicit zero blocks are not materialized anywhere).
    nodeBlocks.clear();
    for (size_t s = 0; s < layout.stripes.size(); ++s) {
        const fac::StripeLayout &stripe = layout.stripes[s];
        for (size_t b = 0; b < layout.n; ++b) {
            uint64_t size = (b < layout.k)
                                ? (b < stripe.dataBlocks.size()
                                       ? stripe.dataBlocks[b].size()
                                       : 0)
                                : stripe.blockSize();
            if (size == 0)
                continue;
            nodeBlocks[stripeNodes[s][b]].push_back({s, b, size});
        }
    }
    for (auto &[node, refs] : nodeBlocks) {
        std::sort(refs.begin(), refs.end(),
                  [](const BlockRef &a, const BlockRef &b) {
                      return a.stripe != b.stripe
                                 ? a.stripe < b.stripe
                                 : a.blockIndex < b.blockIndex;
                  });
    }
}

} // namespace fusion::store
