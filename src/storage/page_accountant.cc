#include "storage/page_accountant.h"

#include <algorithm>
#include <atomic>

namespace moaflat::storage {
namespace {

std::atomic<uint64_t> g_next_heap_id{1};

}  // namespace

uint64_t NewHeapId() {
  return g_next_heap_id.fetch_add(1, std::memory_order_relaxed);
}

void IoStats::TouchBytes(uint64_t heap, uint64_t offset, uint64_t len,
                         Access acc) {
  if (len == 0) return;
  ++touches_;
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + len - 1) / kPageSize;
  if (capacity_ > 0) {
    for (uint64_t p = first; p <= last; ++p) AdmitLru(PageKey(heap, p), acc);
    return;
  }
  for (uint64_t p = first; p <= last; ++p) TouchPageCold(heap, p, acc);
}

void IoStats::TouchGather(uint64_t heap, const uint32_t* idx, size_t n,
                          int width) {
  if (width <= 0 || n == 0) return;
  if (capacity_ > 0) {
    for (size_t k = 0; k < n; ++k) {
      TouchElement(heap, idx[k], width, Access::kRandom);
    }
    return;
  }
  touches_ += n;
  const uint64_t w = static_cast<uint64_t>(width);
  if (kPageSize % w == 0) {
    // Fixed widths divide the page size (so they are powers of two): an
    // element never straddles a page and its page is one shift away. The
    // bitmap is resolved and sized for the largest index once; the loop is
    // then one test-and-set per index, in index order.
    int shift = 0;
    while ((uint64_t{1} << shift) * w < kPageSize) ++shift;
    PageBitmap& bm = BitmapOf(heap);
    const uint32_t max_idx = *std::max_element(idx, idx + n);
    const uint64_t max_word =
        std::min<uint64_t>(uint64_t{max_idx} >> shift, kPageMask) >> 6;
    if (max_word >= bm.words.size()) bm.words.resize(max_word + 1, 0);
    uint64_t* words = bm.words.data();
    uint64_t last_page = ~0ULL;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t page = (uint64_t{idx[k]} >> shift) & kPageMask;
      if (page == last_page) continue;
      last_page = page;
      const uint64_t bit = 1ULL << (page & 63);
      uint64_t& word = words[page >> 6];
      if ((word & bit) != 0) continue;
      word |= bit;
      RecordFault(PageKey(heap, page), Access::kRandom);
    }
    memo_key_ = PageKey(heap, last_page);
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    const uint64_t off = idx[k] * w;
    const uint64_t first = off / kPageSize;
    const uint64_t last = (off + w - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) {
      TouchPageCold(heap, p, Access::kRandom);
    }
  }
}

void IoStats::TouchGathers(std::span<const Gather> gathers, size_t n) {
  if (capacity_ > 0) {
    for (size_t k = 0; k < n; ++k) {
      for (const Gather& g : gathers) {
        TouchElement(g.heap, g.idx[k], g.width, Access::kRandom);
      }
    }
    return;
  }
  for (const Gather& g : gathers) TouchGather(g.heap, g.idx, n, g.width);
}

IoStats::PageBitmap& IoStats::BitmapOf(uint64_t heap) {
  for (size_t s = 0; s < kHeapCacheSlots; ++s) {
    if (cache_heap_[s] == heap) return *cache_bitmap_[s];
  }
  PageBitmap& bm = touched_[heap];
  cache_heap_[cache_next_] = heap;
  cache_bitmap_[cache_next_] = &bm;
  cache_next_ = (cache_next_ + 1) % kHeapCacheSlots;
  return bm;
}

void IoStats::TouchPageColdSlow(uint64_t heap, uint64_t page, Access acc) {
  if (BitmapOf(heap).TestAndSet(page & kPageMask)) {
    memo_key_ = PageKey(heap, page);
    return;
  }
  RecordFault(PageKey(heap, page), acc);
}

void IoStats::AdmitLru(uint64_t key, Access acc) {
  auto it = resident_.find(key);
  if (it != resident_.end()) {
    // Hit: refresh recency.
    if (it->second != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, it->second);
    }
    return;
  }
  RecordFault(key, acc);
  lru_.push_front(key);
  resident_[key] = lru_.begin();
  if (resident_.size() > capacity_) {
    resident_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void IoStats::MergeFrom(const IoStats& shard) {
  touches_ += shard.touches_;
  if (capacity_ > 0) {
    for (const auto& [key, acc] : shard.fault_log_) AdmitLru(key, acc);
    return;
  }
  for (const auto& [key, acc] : shard.fault_log_) {
    TouchPageCold(key >> 22, key & kPageMask, acc);
  }
}

void IoStats::Reset() {
  touched_.clear();
  InvalidateMemos();
  resident_.clear();
  lru_.clear();
  fault_log_.clear();
  faults_ = seq_faults_ = rand_faults_ = touches_ = evictions_ = 0;
  has_error_.store(false, std::memory_order_relaxed);
  error_ = Status::OK();
}

void IoStats::CopyFrom(const IoStats& other) {
  capacity_ = other.capacity_;
  log_faults_ = other.log_faults_;
  fault_log_ = other.fault_log_;
  touched_ = other.touched_;
  lru_ = other.lru_;
  // Rebuild the iterator map against the copied list.
  resident_.clear();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) resident_[*it] = it;
  faults_ = other.faults_;
  seq_faults_ = other.seq_faults_;
  rand_faults_ = other.rand_faults_;
  touches_ = other.touches_;
  evictions_ = other.evictions_;
  has_error_.store(other.has_error_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  error_ = other.error_;
  InvalidateMemos();
}

void IoStats::MoveFrom(IoStats&& other) {
  capacity_ = other.capacity_;
  log_faults_ = other.log_faults_;
  fault_log_ = std::move(other.fault_log_);
  touched_ = std::move(other.touched_);
  lru_ = std::move(other.lru_);
  resident_ = std::move(other.resident_);
  faults_ = other.faults_;
  seq_faults_ = other.seq_faults_;
  rand_faults_ = other.rand_faults_;
  touches_ = other.touches_;
  evictions_ = other.evictions_;
  has_error_.store(other.has_error_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  error_ = std::move(other.error_);
  InvalidateMemos();
  other.Reset();
}

}  // namespace moaflat::storage
