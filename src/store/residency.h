#ifndef BOOTLEG_STORE_RESIDENCY_H_
#define BOOTLEG_STORE_RESIDENCY_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace bootleg::store {

/// Knobs for hot-set residency management of a mapped store.
struct ResidencyOptions {
  /// Resident-set byte budget across every shard of every table. The clock
  /// sweep keeps the most-accessed shards (the Zipf head) advised resident
  /// and MADV_DONTNEEDs the rest. 0 disables management entirely (the
  /// classic unmanaged mmap behavior: the kernel keeps whatever it likes).
  int64_t budget_bytes = 0;
  /// Clock-sweep cadence. Each sweep halves every shard's access counter
  /// (so stale popularity ages out), re-ranks shards, and applies the
  /// advisory deltas.
  int64_t sweep_interval_ms = 1000;
  /// When false the background sweeper thread is not started; callers (tests,
  /// benches) drive SweepOnce() themselves for deterministic schedules.
  bool start_sweeper = true;
};

/// Residency counters for observability. All values monotonically increase
/// except resident_bytes/resident_shards, which snapshot the last sweep.
struct ResidencyStats {
  int64_t budget_bytes = 0;
  int64_t resident_bytes = 0;    // pagemap-sampled estimate at last sweep
  int64_t resident_shards = 0;   // shards currently advised resident
  int64_t prefetch_issued = 0;   // MADV_WILLNEED advisories issued
  int64_t evictions = 0;         // MADV_DONTNEED advisories issued
  int64_t cold_faults = 0;       // gathers that hit an evicted shard
  int64_t sweeps = 0;            // clock passes completed
};

/// How one table's rows tile its shards: shard `s` holds rows
/// [row_begins[s], row_begins[s+1]), and row_begins.back() is the row count.
/// A flat export tiles uniformly (`rows_per_shard` > 0: every shard but the
/// last holds exactly that many rows, the last no more), so a lookup is one
/// divide; the ragged tilings a delta chain produces (`rows_per_shard` == 0)
/// binary-search the boundaries instead.
struct ShardTiling {
  int64_t rows_per_shard = 0;
  std::vector<int64_t> row_begins;

  int64_t shards() const {
    return static_cast<int64_t>(row_begins.size()) - 1;
  }
  int64_t rows_in(int64_t shard) const {
    return row_begins[static_cast<size_t>(shard + 1)] -
           row_begins[static_cast<size_t>(shard)];
  }

  /// The shard holding row `id` (0 <= id < row_begins.back()); `local`
  /// receives the row's index within that shard. The store's one row → shard
  /// lookup: the mapped views and the residency manager both call it.
  int64_t Locate(int64_t id, int64_t* local) const {
    int64_t shard;
    if (rows_per_shard > 0) {
      shard = id / rows_per_shard;
    } else {
      shard = static_cast<int64_t>(std::upper_bound(row_begins.begin(),
                                                    row_begins.end(), id) -
                                   row_begins.begin()) -
              1;
    }
    *local = id - row_begins[static_cast<size_t>(shard)];
    return shard;
  }
};

struct ResidencyShardState;  // per-shard clock state (internal)

/// One shard's advisory range: the full mapped file (mmap bases are
/// page-aligned, as madvise requires).
struct ResidencyShardSpec {
  const uint8_t* base = nullptr;
  size_t bytes = 0;
};

/// One table's shard geometry, mirrored from the store's mapped layout so
/// the gather hook can locate shards without reaching back into the store.
struct ResidencyTableSpec {
  std::string name;
  ShardTiling tiling;
  std::vector<ResidencyShardSpec> shards;
};

/// Popularity-clock residency manager for one mapped store generation.
/// Traffic reaches it only in batches: each mapped-view GatherRows call hands
/// its id list to WillGather once, which counts popularity and re-admits the
/// evicted shards the batch touches; the clock sweep evicts.
///
/// Ownership and generation-swap safety: an EmbeddingStore owns its manager
/// and destroys it (joining the sweeper) before any shard unmaps, and the
/// serving layer only enables residency on the shared_ptr store snapshot it
/// is about to publish — so every madvise this class ever issues targets
/// mappings that are still pinned. The manager never touches another
/// generation's memory.
///
/// Concurrency: gather threads call WillGather (relaxed atomics plus a
/// CAS-guarded re-admission); the sweeper (or a test calling SweepOnce)
/// ranks and applies advisory deltas under an internal mutex. Advisories
/// never change mapped bytes — the mappings are read-only and file-backed,
/// so an evicted page reloads bit-identically.
class ResidencyManager {
 public:
  ResidencyManager(const ResidencyOptions& options,
                   std::vector<ResidencyTableSpec> tables);
  ~ResidencyManager();

  ResidencyManager(const ResidencyManager&) = delete;
  ResidencyManager& operator=(const ResidencyManager&) = delete;

  /// Carries shard popularity over from a displaced generation's manager
  /// when the table/shard geometry matches (by name and shard count), so the
  /// warm-up after a generation swap prefetches the shards that were hot
  /// before the swap instead of guessing. Call before Start().
  void SeedFrom(const ResidencyManager& previous);

  /// Launches the background sweeper. Its first pass is the warm-up: it
  /// ranks shards by (seeded) popularity, MADV_WILLNEEDs the head that fits
  /// the budget and evicts the rest, so first requests after a swap do not
  /// eat page-in latency on the hot set. No-op when budget_bytes == 0 or the
  /// options disabled the sweeper.
  void Start();

  /// One clock pass: halve every access counter, rank shards by popularity,
  /// keep the head within budget (the hottest shard is always kept, even if
  /// it alone exceeds the budget), MADV_DONTNEED newly cold shards and
  /// re-admit sweep-promoted ones. With warm_kept, every kept shard gets a
  /// MADV_WILLNEED touch (the warm-up pass). Updates the resident-bytes
  /// estimate via EstimateResidentBytes.
  void SweepOnce(bool warm_kept = false);

  /// Rows ids[0..n) of table `table` (an index into the specs this manager
  /// was built from) are about to be gathered; a mapped view calls this once
  /// per GatherRows batch. Bumps the popularity of every touched shard and,
  /// for any touched shard the clock evicted, re-admits it and issues
  /// MADV_WILLNEED over just the row span the batch touches, so the advisory
  /// cost scales with the batch, not the shard, and the pages are in flight
  /// before the gather loop reaches them.
  void WillGather(size_t table, const int64_t* ids, int64_t n);

  ResidencyStats stats() const;

  /// Resident byte count across all managed shards, walked from
  /// /proc/self/pagemap (pages mapped into this address space — the quantity
  /// VmRSS charges and MADV_DONTNEED reclaims), falling back to mincore and
  /// then to the advised-state counters when sampling is unavailable.
  int64_t EstimateResidentBytes() const;

 private:
  class Table;

  /// Batch-ahead re-admission: flips the shard resident (counting the cold
  /// fault exactly once across racing threads) and MADV_WILLNEEDs only
  /// `[addr, addr+len)` — the page span of the rows the imminent batch
  /// touches — instead of the whole shard, keeping the in-band advisory
  /// cost proportional to the batch.
  void AdmitRange(ResidencyShardState& s, const uint8_t* addr, size_t len);

  const ResidencyOptions options_;
  std::vector<std::unique_ptr<Table>> tables_;

  // Event counters shared by hooks and sweeps (mirrored into the global
  // metrics registry at the increment sites).
  std::atomic<int64_t> prefetch_issued_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> cold_faults_{0};
  std::atomic<int64_t> sweeps_{0};
  std::atomic<int64_t> resident_bytes_{0};
  std::atomic<int64_t> resident_shards_{0};

  mutable std::mutex sweep_mu_;  // serializes SweepOnce

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread sweeper_;
};

}  // namespace bootleg::store

#endif  // BOOTLEG_STORE_RESIDENCY_H_
