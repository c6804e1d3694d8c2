#include "chunk_cache.h"

namespace fusion::cache {

ChunkCache::ChunkCache(uint64_t capacity_bytes)
    : capacityBytes_(capacity_bytes)
{
}

void
ChunkCache::bindMetrics(obs::Counter *hits, obs::Counter *misses,
                        obs::Counter *evictions, obs::Gauge *bytes)
{
    hitCounter_ = hits;
    missCounter_ = misses;
    evictionCounter_ = evictions;
    bytesGauge_ = bytes;
    syncBytesGauge();
}

void
ChunkCache::syncBytesGauge()
{
    if (bytesGauge_ != nullptr)
        bytesGauge_->set(static_cast<double>(sizeBytes_));
}

bool
ChunkCache::lookup(const std::string &object, uint32_t chunk_id)
{
    auto it = index_.find({object, chunk_id});
    if (it == index_.end()) {
        ++misses_;
        if (missCounter_ != nullptr)
            missCounter_->add(1);
        return false;
    }
    ++hits_;
    if (hitCounter_ != nullptr)
        hitCounter_->add(1);
    it->second->visited = true;
    return true;
}

bool
ChunkCache::contains(const std::string &object, uint32_t chunk_id) const
{
    return index_.count({object, chunk_id}) > 0;
}

void
ChunkCache::evictOne()
{
    // The hand resumes where the previous scan stopped; a fresh (or
    // exhausted) hand starts at the tail, the oldest entry.
    if (!handValid_) {
        hand_ = std::prev(queue_.end());
        handValid_ = true;
    }
    // Clear visited bits while advancing toward the head; wrap back to
    // the tail off the head. Terminates: each step clears one bit, so
    // within one full cycle an unvisited entry exists.
    while (hand_->visited) {
        hand_->visited = false;
        if (hand_ == queue_.begin())
            hand_ = std::prev(queue_.end());
        else
            --hand_;
    }
    ++evictions_;
    if (evictionCounter_ != nullptr)
        evictionCounter_->add(1);
    erase(hand_);
}

void
ChunkCache::erase(Queue::iterator it)
{
    if (handValid_ && hand_ == it) {
        // Keep the hand on the next scan position (toward the head);
        // off the head it resets and restarts at the tail.
        if (it == queue_.begin())
            handValid_ = false;
        else
            hand_ = std::prev(it);
    }
    sizeBytes_ -= it->size;
    index_.erase(it->key);
    queue_.erase(it);
    syncBytesGauge();
}

bool
ChunkCache::admit(const std::string &object, uint32_t chunk_id,
                  uint64_t size)
{
    if (!enabled())
        return false;
    Key key{object, chunk_id};
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Re-admission counts as a use.
        it->second->visited = true;
        return true;
    }
    if (size == 0 || size > capacityBytes_)
        return false;
    while (sizeBytes_ + size > capacityBytes_)
        evictOne();
    queue_.push_front(Slot{std::move(key), size, false});
    index_.emplace(queue_.front().key, queue_.begin());
    sizeBytes_ += size;
    ++admissions_;
    syncBytesGauge();
    return true;
}

void
ChunkCache::invalidate(const std::string &object, uint32_t chunk_id)
{
    auto it = index_.find({object, chunk_id});
    if (it != index_.end())
        erase(it->second);
}

void
ChunkCache::invalidateObject(const std::string &object)
{
    // Resident chunks of one object are contiguous in the ordered
    // index: [(object, 0), (object+1, 0)).
    auto it = index_.lower_bound({object, 0});
    while (it != index_.end() && it->first.first == object) {
        auto victim = it++;
        erase(victim->second);
    }
}

void
ChunkCache::clear()
{
    queue_.clear();
    index_.clear();
    sizeBytes_ = 0;
    handValid_ = false;
    syncBytesGauge();
}

std::vector<ChunkCache::Key>
ChunkCache::residentKeys() const
{
    std::vector<Key> keys;
    keys.reserve(queue_.size());
    for (const Slot &slot : queue_)
        keys.push_back(slot.key);
    return keys;
}

} // namespace fusion::cache
