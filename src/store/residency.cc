#include "store/residency.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace bootleg::store {
namespace {

/// Registry instruments, looked up once. These are global (shared across
/// store generations) like store.gather_rows; the per-generation view lives
/// in ResidencyManager::stats().
obs::Counter* PrefetchCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("store.prefetch_issued");
  return c;
}
obs::Counter* EvictionCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("store.evictions");
  return c;
}
obs::Counter* ColdFaultCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("store.cold_faults");
  return c;
}
obs::Gauge* ResidentBytesGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("store.resident_bytes");
  return g;
}

}  // namespace

/// Per-shard clock state. `hits` is the decayed popularity counter; the
/// `resident` flag tracks the advisory state (true = the clock wants this
/// shard's pages kept; false = MADV_DONTNEED was issued and the next batch
/// that touches the shard counts a cold fault and re-admits it).
struct ResidencyShardState {
  const uint8_t* base = nullptr;
  size_t bytes = 0;
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> resident{true};
};

namespace {

void Advise(const ResidencyShardState& s, int advice) {
  if (s.base == nullptr || s.bytes == 0) return;
  // Mapping bases are page-aligned (mmap return values) as madvise requires;
  // failure is ignored — advisories are best-effort and never affect
  // correctness.
  ::madvise(const_cast<uint8_t*>(s.base), s.bytes, advice);
}

}  // namespace

/// One table's shard set plus the tiling that maps row ids onto shards.
class ResidencyManager::Table {
 public:
  Table(ResidencyManager* mgr, ResidencyTableSpec spec)
      : mgr_(mgr),
        name_(std::move(spec.name)),
        tiling_(std::move(spec.tiling)),
        shards_(std::make_unique<ResidencyShardState[]>(spec.shards.size())) {
    for (size_t i = 0; i < spec.shards.size(); ++i) {
      shards_[i].base = spec.shards[i].base;
      shards_[i].bytes = spec.shards[i].bytes;
    }
  }

  void WillGather(const int64_t* ids, int64_t n) {
    // One pass bumps popularity and collects, per evicted shard the batch
    // touches, the local row span it is about to read. The spans then turn
    // into MADV_WILLNEED over just those rows' pages — issuing a whole-shard
    // advisory from the gather path would put a syscall proportional to the
    // shard size in the request's latency tail.
    struct Span {
      int64_t shard;
      int64_t lo;
      int64_t hi;
    };
    Span spans[kMaxSpans];
    int nspans = 0;
    for (int64_t i = 0; i < n; ++i) {
      int64_t local;
      const int64_t si = tiling_.Locate(ids[i], &local);
      ResidencyShardState& s = shards_[si];
      s.hits.fetch_add(1, std::memory_order_relaxed);
      if (s.resident.load(std::memory_order_relaxed)) continue;
      int sp = 0;
      while (sp < nspans && spans[sp].shard != si) ++sp;
      if (sp < nspans) {
        spans[sp].lo = std::min(spans[sp].lo, local);
        spans[sp].hi = std::max(spans[sp].hi, local);
      } else if (nspans < kMaxSpans) {
        spans[nspans++] = {si, local, local};
      } else {
        // Span table full: re-admit the whole shard (the flag flips, so the
        // shard's later rows in this batch skip this branch).
        mgr_->AdmitRange(s, s.base, s.bytes);
      }
    }
    for (int sp = 0; sp < nspans; ++sp) {
      AdmitSpan(spans[sp].shard, spans[sp].lo, spans[sp].hi);
    }
  }

  const std::string& name() const { return name_; }
  int64_t num_shards() const { return tiling_.shards(); }
  ResidencyShardState& shard(int64_t i) { return shards_[i]; }
  const ResidencyShardState& shard(int64_t i) const { return shards_[i]; }

 private:
  /// Distinct evicted shards tracked per batch before falling back to
  /// whole-shard re-admission. Covers every flat export (a handful of
  /// shards) and all but pathological delta chains.
  static constexpr int kMaxSpans = 32;

  /// Re-admits shard `si` ahead of a batch that reads local rows [lo, hi].
  /// The byte span is estimated proportionally (headers and scales amortize
  /// into the per-row stride), page-aligned outward — an over-approximation
  /// is fine, the advisory is never correctness-bearing.
  void AdmitSpan(int64_t si, int64_t lo, int64_t hi) {
    ResidencyShardState& s = shards_[si];
    static const int64_t page = static_cast<int64_t>(sysconf(_SC_PAGESIZE));
    const int64_t rows = tiling_.rows_in(si);  // > 0: no shard is empty
    const int64_t bytes = static_cast<int64_t>(s.bytes);
    int64_t off = bytes * lo / rows;
    off -= off % page;
    int64_t end = bytes * (hi + 1) / rows + page;
    end = std::min(end - end % page + page, bytes);
    mgr_->AdmitRange(s, s.base + off, static_cast<size_t>(end - off));
  }

  ResidencyManager* mgr_;
  std::string name_;
  ShardTiling tiling_;
  std::unique_ptr<ResidencyShardState[]> shards_;
};

ResidencyManager::ResidencyManager(const ResidencyOptions& options,
                                   std::vector<ResidencyTableSpec> tables)
    : options_(options) {
  tables_.reserve(tables.size());
  for (ResidencyTableSpec& spec : tables) {
    tables_.push_back(std::make_unique<Table>(this, std::move(spec)));
  }
  // Everything starts in the advised-resident state: a fresh mapping has no
  // pages yet, but the clock only begins evicting once a sweep ranks shards.
  int64_t shards = 0;
  for (const auto& t : tables_) shards += t->num_shards();
  resident_shards_.store(shards, std::memory_order_relaxed);
}

ResidencyManager::~ResidencyManager() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

void ResidencyManager::SeedFrom(const ResidencyManager& previous) {
  for (const auto& t : tables_) {
    for (const auto& pt : previous.tables_) {
      if (pt->name() != t->name() || pt->num_shards() != t->num_shards()) {
        continue;
      }
      for (int64_t i = 0; i < t->num_shards(); ++i) {
        t->shard(i).hits.store(
            pt->shard(i).hits.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      break;
    }
  }
}

void ResidencyManager::Start() {
  if (options_.budget_bytes <= 0 || !options_.start_sweeper) return;
  if (sweeper_.joinable()) return;
  sweeper_ = std::thread([this] {
    bool first = true;
    for (;;) {
      if (!first) {
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.sweep_interval_ms),
                          [this] { return stopping_; });
        if (stopping_) return;
      } else {
        std::lock_guard<std::mutex> lock(stop_mu_);
        if (stopping_) return;
      }
      // The first pass is the post-swap warm-up: it runs immediately (in the
      // background, never blocking the generation publish) and WILLNEEDs the
      // kept head so early requests don't eat page-in latency.
      SweepOnce(/*warm_kept=*/first);
      first = false;
    }
  });
}

void ResidencyManager::AdmitRange(ResidencyShardState& s, const uint8_t* addr,
                                  size_t len) {
  bool expected = false;
  if (s.resident.compare_exchange_strong(expected, true,
                                         std::memory_order_relaxed)) {
    cold_faults_.fetch_add(1, std::memory_order_relaxed);
    ColdFaultCounter()->Add(1);
  }
  // Issue the advisory even when another thread won the re-admission race:
  // the racing batch may touch different rows, and WILLNEED over a few
  // already-cached pages is cheap.
  ::madvise(const_cast<uint8_t*>(addr), len, MADV_WILLNEED);
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  PrefetchCounter()->Add(1);
}

void ResidencyManager::SweepOnce(bool warm_kept) {
  std::lock_guard<std::mutex> lock(sweep_mu_);
  struct Ranked {
    uint64_t hits;
    ResidencyShardState* s;
  };
  std::vector<Ranked> ranked;
  for (const auto& t : tables_) {
    for (int64_t i = 0; i < t->num_shards(); ++i) {
      ResidencyShardState& s = t->shard(i);
      const uint64_t h = s.hits.load(std::memory_order_relaxed);
      // Clock decay: halve toward zero so stale popularity ages out over a
      // few sweeps. Concurrent increments between the load and store can be
      // lost; the counter is advisory, not an exact tally.
      s.hits.store(h - h / 2, std::memory_order_relaxed);
      ranked.push_back({h, &s});
    }
  }
  // Stable sort keeps registration order among ties, so a cold start (all
  // counters zero) deterministically keeps the leading shards.
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const Ranked& a, const Ranked& b) { return a.hits > b.hits; });

  int64_t planned_bytes = 0;
  int64_t kept = 0;
  for (const Ranked& r : ranked) {
    const int64_t bytes = static_cast<int64_t>(r.s->bytes);
    // The hottest shard is always pinned, even when it alone exceeds the
    // budget — the Zipf head must stay servable without faulting every batch.
    const bool keep =
        kept == 0 || planned_bytes + bytes <= options_.budget_bytes;
    if (keep) {
      planned_bytes += bytes;
      ++kept;
      bool expected = false;
      const bool readmitted = r.s->resident.compare_exchange_strong(
          expected, true, std::memory_order_relaxed);
      if (readmitted || warm_kept) {
        Advise(*r.s, MADV_WILLNEED);
        prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
        PrefetchCounter()->Add(1);
      }
    } else {
      bool expected = true;
      if (r.s->resident.compare_exchange_strong(expected, false,
                                                std::memory_order_relaxed)) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
        EvictionCounter()->Add(1);
      }
      // Advise even when the flag was already clear: pages the kernel
      // faulted back in since the last sweep (reads that raced the flag,
      // speculative readahead) would otherwise accumulate past the budget.
      // DONTNEED over an already-cold range is a cheap no-op.
      Advise(*r.s, MADV_DONTNEED);
    }
  }
  resident_shards_.store(kept, std::memory_order_relaxed);
  const int64_t resident = EstimateResidentBytes();
  resident_bytes_.store(resident, std::memory_order_relaxed);
  ResidentBytesGauge()->Set(static_cast<double>(resident));
  sweeps_.fetch_add(1, std::memory_order_relaxed);
}

void ResidencyManager::WillGather(size_t table, const int64_t* ids,
                                  int64_t n) {
  tables_[table]->WillGather(ids, n);
}

ResidencyStats ResidencyManager::stats() const {
  ResidencyStats s;
  s.budget_bytes = options_.budget_bytes;
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.resident_shards = resident_shards_.load(std::memory_order_relaxed);
  s.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.cold_faults = cold_faults_.load(std::memory_order_relaxed);
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  return s;
}

int64_t ResidencyManager::EstimateResidentBytes() const {
  const int64_t page = static_cast<int64_t>(sysconf(_SC_PAGESIZE));
  // Primary source is /proc/self/pagemap: its present bit reports whether the
  // page is mapped into *our* address space — the quantity MADV_DONTNEED
  // reclaims and VmRSS charges. mincore() is the fallback, but it reports
  // page-cache residency for file-backed ranges, which eviction cannot lower
  // on a warm cache (and never lowers on tmpfs), so it overestimates.
  const int pagemap_fd = ::open("/proc/self/pagemap", O_RDONLY);
  std::vector<uint64_t> entries;
  std::vector<unsigned char> vec;
  int64_t resident = 0;
  for (const auto& t : tables_) {
    for (int64_t i = 0; i < t->num_shards(); ++i) {
      const ResidencyShardState& s = t->shard(i);
      if (s.base == nullptr || s.bytes == 0) continue;
      const size_t pages = (s.bytes + page - 1) / page;
      if (pagemap_fd >= 0) {
        const uint64_t first =
            reinterpret_cast<uintptr_t>(s.base) / static_cast<uint64_t>(page);
        entries.resize(pages);
        const ssize_t want = static_cast<ssize_t>(pages * sizeof(uint64_t));
        if (::pread(pagemap_fd, entries.data(), static_cast<size_t>(want),
                    static_cast<off_t>(first * sizeof(uint64_t))) == want) {
          for (size_t p = 0; p < pages; ++p) {
            if (entries[p] & (1ull << 63)) resident += page;  // present
          }
          continue;
        }
      }
      vec.resize(pages);
      if (::mincore(const_cast<uint8_t*>(s.base), s.bytes, vec.data()) == 0) {
        for (size_t p = 0; p < pages; ++p) {
          if (vec[p] & 1) resident += page;
        }
      } else if (s.resident.load(std::memory_order_relaxed)) {
        // Sampling unavailable entirely: the counter estimate (advised
        // state × mapped bytes).
        resident += static_cast<int64_t>(s.bytes);
      }
    }
  }
  if (pagemap_fd >= 0) ::close(pagemap_fd);
  return resident;
}

}  // namespace bootleg::store
