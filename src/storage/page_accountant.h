#ifndef MOAFLAT_STORAGE_PAGE_ACCOUNTANT_H_
#define MOAFLAT_STORAGE_PAGE_ACCOUNTANT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/status.h"

namespace moaflat::storage {

/// Disk/VM page size used by the IO accounting layer. Matches the paper's
/// cost-model parameter B = 4096 (Section 5.2.2).
inline constexpr size_t kPageSize = 4096;

/// Allocates a process-unique heap id. Every BUN heap / string heap /
/// relational page file registers itself so page touches can be attributed.
uint64_t NewHeapId();

/// Access pattern of a heap touch; only used for reporting (the fault count
/// itself is pattern-independent: a page faults the first time it is
/// touched in a cold run, exactly as in the paper's cold-memory-mapped-file
/// model).
enum class Access { kSequential, kRandom };

/// Counts simulated page faults.
///
/// The paper measures real virtual-memory page faults of cold memory-mapped
/// BATs on a 128 MB SPARCstation. We reproduce the measurement by modelling
/// each heap as a cold memory-mapped file of 4 KB pages: the first touch of
/// any page in the lifetime of an IoStats is a fault, later touches
/// are hits. This is precisely the assumption under which the Section
/// 5.2.2 formulas E_rel / E_dv are derived.
///
/// An optional *capacity* (in pages) models the paper's 128 MB machine:
/// with a capacity set, pages are kept in an LRU pool and evicted pages
/// fault again on the next touch — the "excessive swapping" regime the
/// paper observes on Q1 when the hot-set outgrows main memory (Section
/// 6.2). Unlimited capacity (the default) is the pure cold-run model.
///
/// Cost: every kernel inner loop reports its touches here, so the
/// unlimited-capacity mode (what all cold-run kernels execute under) is a
/// per-heap touched-page *bitmap* behind two one-entry memos — the common
/// repeat-page / repeat-heap touch costs one integer compare plus one bit
/// test, never a hash probe. Only the LRU mode keeps the recency map, and
/// only it pays for one.
class IoStats {
 public:
  IoStats() = default;

  /// Creates a memory-limited pager holding at most `capacity_pages`.
  explicit IoStats(size_t capacity_pages) : capacity_(capacity_pages) {}

  // The cold-mode memos point into touched_; remap them on copy/move.
  IoStats(const IoStats& other) { CopyFrom(other); }
  IoStats& operator=(const IoStats& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  IoStats(IoStats&& other) noexcept { MoveFrom(std::move(other)); }
  IoStats& operator=(IoStats&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Accountant for one block of a parallel kernel phase: unlimited
  /// capacity (blocks start cold, so the fault set *is* the touched page
  /// set) and an ordered fault log that MergeFrom replays. Hand it to the
  /// block's touches, then merge the shards in block order. A shard never
  /// draws injected IO faults: the owning accountant draws once per fault
  /// it merges, so the draws do not depend on which thread ran a block.
  static IoStats ForShard() {
    IoStats s;
    s.log_faults_ = true;
    return s;
  }

  /// Replays a shard's faults (its first-touch-per-page log, in touch
  /// order) into this accountant: pages already resident here stay hits,
  /// new pages fault with the access kind of the shard's first touch.
  /// Merging contiguous shards in block order therefore reproduces the
  /// serial run's fault count, its sequential/random split and its
  /// logical-touch total *exactly* under cold-run (unlimited-capacity)
  /// accounting — the basis of the parallel kernels' exact IO accounting.
  /// With an LRU capacity configured on *this*, replay order approximates
  /// recency (shard-internal hits do not refresh the LRU).
  /// `shard` must come from ForShard(); shards without a fault log only
  /// contribute their logical-touch count.
  void MergeFrom(const IoStats& shard);

  /// Records a touch of `len` bytes starting at `offset` within heap `heap`.
  void TouchBytes(uint64_t heap, uint64_t offset, uint64_t len, Access acc);

  /// Records a touch of element `index` in a heap of `width`-byte values.
  void TouchElement(uint64_t heap, uint64_t index, int width, Access acc) {
    if (width <= 0) return;  // void columns occupy no storage
    TouchBytes(heap, index * static_cast<uint64_t>(width),
               static_cast<uint64_t>(width), acc);
  }

  /// Records a sequential touch of elements [lo, hi) in a heap.
  void TouchRange(uint64_t heap, uint64_t lo, uint64_t hi, int width) {
    if (width <= 0 || hi <= lo) return;
    TouchBytes(heap, lo * static_cast<uint64_t>(width),
               (hi - lo) * static_cast<uint64_t>(width), Access::kSequential);
  }

  /// Batch API for gather loops: equivalent to one random TouchElement per
  /// index, in order. Cold mode resolves the heap's bitmap once and runs
  /// one test-and-set loop in index order, so faults, the seq/rand split,
  /// logical touches and the fault-log order all equal the element loop.
  void TouchGather(uint64_t heap, const uint32_t* idx, size_t n, int width);

  /// One heap read by a gather loop: element idx[k] of `width`-byte values.
  struct Gather {
    uint64_t heap = 0;
    const uint32_t* idx = nullptr;
    int width = 0;
  };

  /// Touches of a loop that reads, for each k in [0, n), element idx[k] of
  /// every listed heap in turn. A cold pager charges a page on its first
  /// touch whatever the interleaving, so cold mode runs one batched
  /// TouchGather per heap (same faults, split and logical touches; the
  /// fault log lists each heap's faults together). An LRU pool depends on
  /// the interleaving, so capacity mode replays the true per-element
  /// order. This is the one place that choice is made: kernels hand their
  /// gather index arrays here instead of looping over TouchElement.
  void TouchGathers(std::span<const Gather> gathers, size_t n);

  uint64_t faults() const { return faults_; }
  uint64_t sequential_faults() const { return seq_faults_; }
  uint64_t random_faults() const { return rand_faults_; }
  uint64_t logical_touches() const { return touches_; }

  /// Returns-and-clears the latched (simulated) IO read error, if any.
  /// A page fault under an armed FaultInjector may latch one; the next
  /// ExecContext::CheckInterrupt() poll surfaces it as the statement's
  /// failure. Clearing on take keeps the accountant reusable by the
  /// session's next query. Thread-safe against concurrent takers (worker
  /// blocks poll via ChargeGate::Flush); the *latch* side runs only on the
  /// accountant's owner thread (serial touches and block-ordered merges),
  /// never concurrently with a parallel phase's polls.
  Status TakeError() {
    if (!has_error_.load(std::memory_order_acquire)) return Status::OK();
    if (!has_error_.exchange(false, std::memory_order_acq_rel)) {
      return Status::OK();
    }
    Status e = std::move(error_);
    error_ = Status::OK();
    return e;
  }

  /// Forgets all residency state (the next touch of every page faults
  /// again), e.g. between benchmark repetitions.
  void Reset();

  size_t resident_pages() const {
    // Without a capacity nothing is ever evicted, so the resident set is
    // exactly the faulted set.
    return capacity_ > 0 ? resident_.size() : static_cast<size_t>(faults_);
  }
  uint64_t evictions() const { return evictions_; }

 private:
  /// Touched-page bitmap of one heap (cold-run mode).
  struct PageBitmap {
    std::vector<uint64_t> words;

    /// Tests-and-sets the page bit; true if the page was already touched.
    bool TestAndSet(uint64_t page) {
      const size_t word = static_cast<size_t>(page >> 6);
      if (word >= words.size()) words.resize(word + 1, 0);
      const uint64_t bit = 1ULL << (page & 63);
      const bool hit = (words[word] & bit) != 0;
      words[word] |= bit;
      return hit;
    }
  };

  static constexpr uint64_t kPageMask = (1ULL << 22) - 1;
  // 22 bits of page number per heap is plenty (16 GB heaps); heap ids are
  // process-unique so collisions cannot occur in practice.
  static uint64_t PageKey(uint64_t heap, uint64_t page) {
    return (heap << 22) | (page & kPageMask);
  }

  /// LRU-mode admission (the only path that pays for the recency map).
  void AdmitLru(uint64_t key, Access acc);
  /// Cold-mode slow path of TouchPage: resolve the heap bitmap.
  void TouchPageColdSlow(uint64_t heap, uint64_t page, Access acc);
  /// The heap's touched-page bitmap via the small heap cache (created and
  /// cached on first use).
  PageBitmap& BitmapOf(uint64_t heap);

  /// Cold-mode touch of one page: one compare against the last-page memo,
  /// else one bit test in the heap's bitmap, resolved through a small
  /// direct-scanned cache (kernels touch at most a handful of heaps per
  /// phase, but they *rotate* — a join alternates probe/head/tail heaps
  /// per match — so a single-heap memo would miss every touch).
  void TouchPageCold(uint64_t heap, uint64_t page, Access acc) {
    const uint64_t key = PageKey(heap, page);
    if (key == memo_key_) return;  // repeat touch of the resident memo page
    for (size_t s = 0; s < kHeapCacheSlots; ++s) {
      if (cache_heap_[s] == heap) {
        if (cache_bitmap_[s]->TestAndSet(page & kPageMask)) {
          memo_key_ = key;
          return;
        }
        RecordFault(key, acc);
        return;
      }
    }
    TouchPageColdSlow(heap, page, acc);
  }

  /// The one fault-counting path of both modes.
  void RecordFault(uint64_t key, Access acc) {
    ++faults_;
    if (acc == Access::kSequential) {
      ++seq_faults_;
    } else {
      ++rand_faults_;
    }
    memo_key_ = key;
    // Simulated IO errors fire per *fault* (not per touch), on the owning
    // accountant only — serial kernels directly, parallel ones at the
    // block-ordered shard merge — keeping the decision sequence
    // deterministic for a given seed at any degree. Shards only log.
    if (log_faults_) {
      fault_log_.emplace_back(key, acc);
      return;
    }
    if (FaultInjector* fi = CurrentFaultInjector();
        fi != nullptr && !has_error_.load(std::memory_order_relaxed) &&
        fi->Fire(FaultInjector::Site::kIo)) {
      error_ = Status::IoError("injected page read error");
      has_error_.store(true, std::memory_order_release);
    }
  }

  void CopyFrom(const IoStats& other);
  void MoveFrom(IoStats&& other);
  void InvalidateMemos() {
    cache_heap_.fill(~0ULL);
    cache_bitmap_.fill(nullptr);
    cache_next_ = 0;
    memo_key_ = ~0ULL;
  }

  size_t capacity_ = 0;  // 0 = unlimited (pure cold-run accounting)
  bool log_faults_ = false;  // shard mode: record faults for MergeFrom
  std::vector<std::pair<uint64_t, Access>> fault_log_;
  // Cold-run state: per-heap touched-page bitmaps behind a last-page memo
  // and a small heap -> bitmap cache (round-robin replacement; bitmap
  // pointers stay valid across inserts, the map is node-based).
  static constexpr size_t kHeapCacheSlots = 4;
  std::unordered_map<uint64_t, PageBitmap> touched_;
  std::array<uint64_t, kHeapCacheSlots> cache_heap_{~0ULL, ~0ULL, ~0ULL,
                                                    ~0ULL};
  std::array<PageBitmap*, kHeapCacheSlots> cache_bitmap_{};
  size_t cache_next_ = 0;
  uint64_t memo_key_ = ~0ULL;
  // LRU pool (capacity mode only): most-recently-used pages at the front.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;
  uint64_t faults_ = 0;
  uint64_t seq_faults_ = 0;
  uint64_t rand_faults_ = 0;
  uint64_t touches_ = 0;
  uint64_t evictions_ = 0;
  // Latched injected IO error; surfaced via TakeError(). The atomic flag
  // fronts the (non-atomic) Status so concurrent pollers race only on the
  // exchange, never on the Status itself.
  std::atomic<bool> has_error_{false};
  Status error_;
};

}  // namespace moaflat::storage

#endif  // MOAFLAT_STORAGE_PAGE_ACCOUNTANT_H_
