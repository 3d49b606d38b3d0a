#ifndef BOOTLEG_STORE_EMBEDDING_STORE_H_
#define BOOTLEG_STORE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/residency.h"
#include "util/status.h"

namespace bootleg::store {

/// Read-only [rows × cols] float matrix between the model's frozen-inference
/// gather and whatever holds the rows: a heap table (HeapView), a
/// memory-mapped float32 or int8 shard set (EmbeddingStore::View), or the
/// model's live tables, computed on demand.
///
/// Rows leave a view one way, GatherRows; a caller that wants one row passes
/// a one-element id list. Implementations are immutable after construction
/// and safe to share across serving threads.
class StoreView {
 public:
  virtual ~StoreView() = default;

  virtual int64_t rows() const = 0;
  virtual int64_t cols() const = 0;

  /// Copies rows ids[0..n) (each in [0, rows()), repeats allowed, any order)
  /// into dst, cols() floats per row; int8 storage dequantizes on the way.
  /// A row's bytes never depend on the rest of the list, so gathering a
  /// batch equals gathering each id alone. Views over memory keep a window
  /// of upcoming rows' cache lines in flight, and a mapped view under
  /// residency management hands the whole id list to its ResidencyManager
  /// once per call.
  virtual void GatherRows(const int64_t* ids, int64_t n, float* dst) const = 0;
};

/// StoreView over caller-owned contiguous float rows (the in-memory frozen
/// table); GatherRows copies each row out. Does not own the data; the owner
/// must outlive the view.
class HeapView : public StoreView {
 public:
  HeapView(const float* data, int64_t rows, int64_t cols)
      : data_(data), rows_(rows), cols_(cols) {}

  int64_t rows() const override { return rows_; }
  int64_t cols() const override { return cols_; }
  void GatherRows(const int64_t* ids, int64_t n, float* dst) const override;

 private:
  const float* data_;
  int64_t rows_;
  int64_t cols_;
};

/// Element encoding of a stored table.
enum class Dtype : uint32_t {
  kFloat32 = 0,  // rows are raw little-endian float32
  kInt8 = 1,     // per-row symmetric int8: value ≈ q * scale, zero_point = 0
};

const char* DtypeName(Dtype dtype);

/// Per-shard description, as recorded in the MANIFEST and re-validated
/// against the shard file headers at open.
///
/// `dir` is the chained-generation hook (manifest v2): when non-empty it
/// names a sibling generation directory (strictly `gen_<digits>`) holding
/// the shard file, so an incremental generation can reference its parent's
/// unchanged shards by content (exact byte size + payload CRC32) instead of
/// rewriting them. v1 manifests carry no dir field (always own-dir).
struct ShardInfo {
  std::string file;        // filename relative to the owning directory
  std::string dir;         // "" = manifest's own dir; else sibling gen dir
  int64_t row_begin = 0;   // first entity row in this shard
  int64_t row_count = 0;
  uint64_t file_bytes = 0; // exact on-disk size (truncation check at open)
  uint32_t payload_crc = 0;  // CRC32 over the payload (scales + row data)
};

/// One auxiliary file carried by a v2 generation manifest — opaque to the
/// store (the live-index layer keeps its KB/alias deltas here) but covered
/// by the same integrity contract as shards: exact byte size checked at
/// Open, whole-file CRC32 checked by Verify. Like shards, aux files of
/// parent generations are referenced by `dir` rather than copied.
struct AuxFileInfo {
  std::string file;        // filename, no '/' allowed
  std::string dir;         // "" = manifest's own dir; else sibling gen dir
  uint64_t file_bytes = 0;
  uint32_t crc = 0;        // CRC32 over the whole file
};

/// One named table inside the store (e.g. "static", "entity_emb").
struct TableInfo {
  std::string name;
  int64_t rows = 0;
  int64_t cols = 0;
  Dtype dtype = Dtype::kFloat32;
  /// Quantization error stats measured at export against the exact floats:
  /// max/mean |x - dequant(quant(x))| over the whole table (0 for float32).
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  std::vector<ShardInfo> shards;
};

/// Options controlling WriteStore.
struct WriteOptions {
  Dtype dtype = Dtype::kFloat32;
  /// Number of shards to split each table into (entity-id ranges of equal
  /// size; the last shard takes the remainder). Shards are built and written
  /// in parallel through the global thread pool. Clamped to [1, rows].
  int64_t shards = 4;
};

/// One table to export: `name` plus `rows × cols` contiguous floats.
struct TableSource {
  std::string name;
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// Writes a store directory: one shard file per table per entity-id range,
/// each through util::AtomicFileWriter with a v1 CRC32 footer, then the
/// MANIFEST (also atomic, checksummed) describing every table and shard.
/// Because the MANIFEST lands last, a complete MANIFEST implies the shards
/// it names were all committed; a crash mid-export leaves at worst torn
/// `.tmp` siblings that Open/generation scans ignore.
util::Status WriteStore(const std::string& dir,
                        const std::vector<TableSource>& tables,
                        const WriteOptions& options);

/// Writes one standalone shard file into `dir` holding `row_count` rows that
/// begin at table row `row_begin` — the delta-append path. `data` points at
/// the first row to write (not at table row 0), and `file` is caller-chosen
/// so delta shards from different generations never collide when a
/// compaction gathers a chain's files into one directory. Fills `info`
/// (including the payload CRC); for int8, `max_abs_error` / `sum_abs_error`
/// receive the quantization error stats of the written rows.
util::Status WriteTableShard(const std::string& dir, const std::string& file,
                             const std::string& table, const float* data,
                             int64_t row_begin, int64_t row_count,
                             int64_t cols, Dtype dtype, ShardInfo* info,
                             double* max_abs_error, double* sum_abs_error);

/// Writes a v2 (chained-generation) MANIFEST into `dir`: tables whose shards
/// may live in sibling generation directories (ShardInfo::dir) plus the
/// generation's auxiliary files. Written atomically, last — its presence
/// certifies the files it references were all committed. The open path
/// re-validates every referenced file (header, exact size) so a manifest
/// naming a missing or doctored parent shard fails with kCorruption.
util::Status WriteChainedManifest(const std::string& dir,
                                  const std::vector<TableInfo>& tables,
                                  const std::vector<AuxFileInfo>& aux);

/// A memory-mapped read-only file. Movable, closes (munmap) on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. IOError when the file cannot be opened/mapped.
  util::Status Map(const std::string& path);

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }

 private:
  void Reset();
  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
};

/// A read-only, memory-mapped, sharded entity-table store, as written by
/// WriteStore / `bootleg_cli export-store`.
///
/// Open() parses and checksum-verifies the MANIFEST, then maps every shard
/// and validates its header and exact byte size against the manifest —
/// structural corruption (truncation, wrong shapes, renamed files) fails
/// with kCorruption at open. Payload bit flips are caught by Verify(), which
/// walks every mapped byte against the per-shard CRC32 (`bootleg_cli store
/// --verify`, the fuzz tests, and the check.sh drill run it; the serving
/// open path skips it to keep page-ins lazy).
///
/// All reads after Open are lock-free over the mappings; an EmbeddingStore
/// is immutable and safe to share across threads. Serving swaps generations
/// by replacing a shared_ptr under a lock; readers take shared_ptr
/// snapshots, which keep a displaced generation mapped until released.
class EmbeddingStore {
 public:
  static util::StatusOr<std::unique_ptr<EmbeddingStore>> Open(
      const std::string& dir);

  /// Full payload CRC32 check of every shard of every table, plus a
  /// whole-file CRC32 check of every aux file the manifest references.
  util::Status Verify() const;

  const std::string& dir() const { return dir_; }
  const std::vector<TableInfo>& tables() const { return tables_; }
  const TableInfo* FindTable(const std::string& name) const;

  /// Aux files referenced by the manifest (v2 only; empty for v1 stores),
  /// ordered base generation → tip so deltas apply in publish order.
  const std::vector<AuxFileInfo>& aux_files() const { return aux_; }
  /// Resolves an aux file to its full on-disk path.
  std::string AuxPath(const AuxFileInfo& aux) const;

  /// Total mapped bytes across all shards (the store's resident ceiling).
  uint64_t mapped_bytes() const;
  /// Number of mapped shard files across all tables.
  int64_t num_shards() const;

  /// A view gathering rows of `name` through the mappings. The view borrows
  /// the store's mappings (and its residency manager, when one is enabled
  /// before this call): callers must keep the EmbeddingStore alive (the
  /// serving layer holds both in one shared generation object). NotFound
  /// when no such table exists.
  util::StatusOr<std::shared_ptr<StoreView>> View(const std::string& name) const;

  /// Enables hot-set residency management over the mappings. Call before
  /// View() so the views report their gathers to the manager — the serving
  /// layer enables it on a freshly opened generation before publishing the
  /// shared_ptr snapshot, which keeps every advisory confined to pinned
  /// mappings. budget_bytes ≤ 0 leaves the store unmanaged (no manager, no
  /// advisories, nothing changes). Starts the background clock sweeper
  /// unless the options say otherwise; `previous` (nullable) seeds shard
  /// popularity from the displaced generation so the warm-up prefetches the
  /// right head.
  void EnableResidency(const ResidencyOptions& options,
                       const ResidencyManager* previous = nullptr);

  /// The residency manager, or nullptr when unmanaged.
  ResidencyManager* residency() const { return residency_.get(); }

  /// Residency counters; all zero (budget_bytes == 0) when unmanaged.
  ResidencyStats residency_stats() const;

 private:
  struct MappedShard {
    MappedFile file;
    const uint8_t* payload = nullptr;  // scales (int8 only) + row data
    const float* scales = nullptr;     // [row_count] (int8 only)
    const uint8_t* rows = nullptr;     // row-major payload
    uint64_t payload_bytes = 0;
  };
  struct MappedTable {
    TableInfo info;
    std::vector<MappedShard> shards;
    ShardTiling tiling;
  };

  util::Status Load(const std::string& dir);

  std::string dir_;
  std::vector<TableInfo> tables_;
  std::vector<AuxFileInfo> aux_;
  std::vector<MappedTable> mapped_;
  /// Declared after mapped_ so destruction joins the sweeper before any
  /// shard unmaps — advisories never chase a dead mapping.
  std::unique_ptr<ResidencyManager> residency_;

  friend class MappedView;
};

// ---------------------------------------------------------------------------
// Quantization (symmetric per-row int8: scale = max|x| / 127, zero_point 0).
// ---------------------------------------------------------------------------

/// Quantizes one row: scale = max|x|/127 (0 for an all-zero row), q =
/// round(x/scale) in [-127, 127]. Returns the scale.
float QuantizeRow(const float* src, int64_t cols, int8_t* dst);

/// Dequantizes one row: dst = q * scale.
void DequantizeRow(const int8_t* src, int64_t cols, float scale, float* dst);

/// Worst-case reconstruction error bound for a row with the given scale:
/// |x - dequant(quant(x))| ≤ scale/2 (rounding half-step).
inline float RowErrorBound(float scale) { return 0.5f * scale; }

/// Scans `dir`'s subdirectories for store generations named `gen_<number>`
/// and returns the openable one with the highest number, skipping corrupt or
/// incomplete generations (logged). `generation` receives the parsed number.
/// When `dir` itself holds a MANIFEST it is returned as generation 0.
/// NotFound when nothing is servable.
util::StatusOr<std::unique_ptr<EmbeddingStore>> OpenNewestGeneration(
    const std::string& dir, int64_t* generation);

}  // namespace bootleg::store

#endif  // BOOTLEG_STORE_EMBEDDING_STORE_H_
