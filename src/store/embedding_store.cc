#include "store/embedding_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <utility>

#include "backend/simd_primitives.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace bootleg::store {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestMagic = 0xB007E5D0;
constexpr uint32_t kShardMagic = 0xB007E5D1;
constexpr uint32_t kVersion = 1;
/// Manifest version carrying chained-generation references: per-shard
/// directory tags pointing at sibling generations plus an aux-file section.
/// Shard files themselves are unversioned-by-chain (still kVersion).
constexpr uint32_t kVersionChained = 2;

/// Manifests may reference files in sibling generation directories, but only
/// through a strict `gen_<digits>` component — never a path that could
/// escape the store root.
bool ValidDirRef(const std::string& d) {
  if (d.empty()) return true;
  if (d.rfind("gen_", 0) != 0 || d.size() <= 4) return false;
  for (size_t i = 4; i < d.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(d[i]))) return false;
  }
  return true;
}

/// Resolves a (dir ref, file) pair against the directory holding the
/// manifest: own-dir files live next to it, dir-tagged files in a sibling
/// generation directory under the common store root.
std::string ResolveChained(const std::string& manifest_dir,
                           const std::string& dir_ref,
                           const std::string& file) {
  if (dir_ref.empty()) return manifest_dir + "/" + file;
  return (fs::path(manifest_dir).parent_path() / dir_ref / file).string();
}

/// Shard payloads start on a 64-byte boundary so mapped float scales and
/// rows are cache-line aligned regardless of the header's string lengths.
constexpr uint64_t kPayloadAlign = 64;

constexpr const char* kManifestName = "MANIFEST";

uint64_t ElemBytes(Dtype dtype) { return dtype == Dtype::kInt8 ? 1 : 4; }

uint64_t PayloadBytes(Dtype dtype, int64_t row_count, int64_t cols) {
  const uint64_t rows_bytes = static_cast<uint64_t>(row_count) *
                              static_cast<uint64_t>(cols) * ElemBytes(dtype);
  const uint64_t scale_bytes =
      dtype == Dtype::kInt8 ? static_cast<uint64_t>(row_count) * 4 : 0;
  return scale_bytes + rows_bytes;
}

uint64_t AlignUp(uint64_t v) {
  return (v + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

std::string ShardFileName(const std::string& table, int64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".shard_%06lld.bin",
                static_cast<long long>(index));
  return table + buf;
}

/// Process-wide gather accounting shared by every mapped view (serving runs
/// one store generation at a time; tests reset the registry).
obs::Counter* GatherRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("store.gather_rows");
  return c;
}

}  // namespace

const char* DtypeName(Dtype dtype) {
  switch (dtype) {
    case Dtype::kFloat32: return "float32";
    case Dtype::kInt8: return "int8";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Quantization
// ---------------------------------------------------------------------------

float QuantizeRow(const float* src, int64_t cols, int8_t* dst) {
  float max_abs = 0.0f;
  for (int64_t j = 0; j < cols; ++j) {
    max_abs = std::max(max_abs, std::fabs(src[j]));
  }
  if (max_abs == 0.0f) {
    std::memset(dst, 0, static_cast<size_t>(cols));
    return 0.0f;
  }
  const float scale = max_abs / 127.0f;
  const float inv = 127.0f / max_abs;
  for (int64_t j = 0; j < cols; ++j) {
    const float q = std::nearbyintf(src[j] * inv);
    dst[j] = static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, q)));
  }
  return scale;
}

void DequantizeRow(const int8_t* src, int64_t cols, float scale, float* dst) {
  for (int64_t j = 0; j < cols; ++j) {
    dst[j] = static_cast<float>(src[j]) * scale;
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Writes one shard file atomically and fills `info` (including payload
/// CRC). `data` points at the first row to write; `row_begin` is only
/// recorded in the header/manifest (delta shards write rows whose table
/// offset is far from their buffer offset).
util::Status WriteShardFile(const std::string& dir, const std::string& file,
                            const std::string& table, const float* data,
                            int64_t row_begin, int64_t row_count, int64_t cols,
                            Dtype dtype, ShardInfo* info,
                            double* max_abs_error, double* sum_abs_error) {
  info->file = file;
  info->row_begin = row_begin;
  info->row_count = row_count;

  util::AtomicFileWriter atomic(dir + "/" + info->file);
  util::BinaryWriter w(atomic.temp_path());
  w.WriteU32(kShardMagic);
  w.WriteU32(kVersion);
  w.BeginSection();
  w.WriteString(table);
  w.WriteU32(static_cast<uint32_t>(dtype));
  w.WriteI64(row_begin);
  w.WriteI64(row_count);
  w.WriteI64(cols);
  w.WriteU64(PayloadBytes(dtype, row_count, cols));
  w.EndSection();

  // Pad so the payload starts cache-line aligned (the reader recomputes the
  // same offset from its consumed byte count).
  const uint64_t pad = AlignUp(w.bytes_written()) - w.bytes_written();
  const char zeros[kPayloadAlign] = {};
  w.WriteRaw(zeros, pad);

  const float* rows = data;
  uint32_t crc = 0;
  if (dtype == Dtype::kFloat32) {
    const size_t n = static_cast<size_t>(row_count * cols) * 4;
    crc = util::Crc32(rows, n);
    w.WriteRaw(rows, n);
  } else {
    std::vector<float> scales(static_cast<size_t>(row_count));
    std::vector<int8_t> q(static_cast<size_t>(row_count * cols));
    double max_err = 0.0, sum_err = 0.0;
    for (int64_t r = 0; r < row_count; ++r) {
      const float* x = rows + r * cols;
      int8_t* qr = q.data() + r * cols;
      const float scale = QuantizeRow(x, cols, qr);
      scales[static_cast<size_t>(r)] = scale;
      for (int64_t j = 0; j < cols; ++j) {
        const double err =
            std::fabs(static_cast<double>(x[j]) -
                      static_cast<double>(qr[j]) * static_cast<double>(scale));
        max_err = std::max(max_err, err);
        sum_err += err;
      }
    }
    *max_abs_error = max_err;
    *sum_abs_error = sum_err;
    const size_t scale_bytes = scales.size() * 4;
    crc = util::Crc32(scales.data(), scale_bytes);
    crc = util::Crc32(q.data(), q.size(), crc);
    w.WriteRaw(scales.data(), scale_bytes);
    w.WriteRaw(q.data(), q.size());
  }
  info->payload_crc = crc;
  w.WriteU32(crc);
  w.WriteFooter();
  info->file_bytes = w.bytes_written();
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

void SaveManifestTo(util::BinaryWriter* w, uint32_t version,
                    const std::vector<TableInfo>& tables,
                    const std::vector<AuxFileInfo>& aux) {
  w->WriteU32(kManifestMagic);
  w->WriteU32(version);
  w->BeginSection();
  w->WriteU64(tables.size());
  for (const TableInfo& t : tables) {
    w->WriteString(t.name);
    w->WriteI64(t.rows);
    w->WriteI64(t.cols);
    w->WriteU32(static_cast<uint32_t>(t.dtype));
    w->WriteF64(t.max_abs_error);
    w->WriteF64(t.mean_abs_error);
    w->WriteU64(t.shards.size());
    for (const ShardInfo& s : t.shards) {
      w->WriteString(s.file);
      if (version >= kVersionChained) w->WriteString(s.dir);
      w->WriteI64(s.row_begin);
      w->WriteI64(s.row_count);
      w->WriteU64(s.file_bytes);
      w->WriteU32(s.payload_crc);
    }
  }
  w->EndSection();
  if (version >= kVersionChained) {
    w->BeginSection();
    w->WriteU64(aux.size());
    for (const AuxFileInfo& a : aux) {
      w->WriteString(a.file);
      w->WriteString(a.dir);
      w->WriteU64(a.file_bytes);
      w->WriteU32(a.crc);
    }
    w->EndSection();
  }
  w->WriteFooter();
}

util::Status LoadManifest(const std::string& path,
                          std::vector<TableInfo>* tables,
                          std::vector<AuxFileInfo>* aux) {
  util::BinaryReader r(path);
  BOOTLEG_RETURN_IF_ERROR(r.status());
  auto corrupt = [&path](const std::string& what) {
    return util::Status::Corruption("store manifest: " + what + ": " + path);
  };
  if (r.ReadU32() != kManifestMagic) return corrupt("bad magic");
  const uint32_t version = r.ReadU32();
  if (version != kVersion && version != kVersionChained) {
    return corrupt("unsupported version");
  }
  r.BeginSection();
  const uint64_t num_tables = r.ReadU64();
  if (!r.status().ok() || num_tables > 64) return corrupt("bad table count");
  tables->clear();
  aux->clear();
  for (uint64_t i = 0; i < num_tables; ++i) {
    TableInfo t;
    t.name = r.ReadString();
    t.rows = r.ReadI64();
    t.cols = r.ReadI64();
    const uint32_t dtype = r.ReadU32();
    t.max_abs_error = r.ReadF64();
    t.mean_abs_error = r.ReadF64();
    const uint64_t num_shards = r.ReadU64();
    if (!r.status().ok()) return corrupt("truncated table entry");
    if (t.rows < 0 || t.cols <= 0 || dtype > 1 ||
        num_shards > static_cast<uint64_t>(t.rows) + 1) {
      return corrupt("invalid table geometry");
    }
    t.dtype = static_cast<Dtype>(dtype);
    for (uint64_t si = 0; si < num_shards; ++si) {
      ShardInfo s;
      s.file = r.ReadString();
      if (version >= kVersionChained) s.dir = r.ReadString();
      s.row_begin = r.ReadI64();
      s.row_count = r.ReadI64();
      s.file_bytes = r.ReadU64();
      s.payload_crc = r.ReadU32();
      if (!r.status().ok()) return corrupt("truncated shard entry");
      if (s.row_begin < 0 || s.row_count < 0 ||
          s.row_begin + s.row_count > t.rows ||
          s.file.find('/') != std::string::npos || !ValidDirRef(s.dir)) {
        return corrupt("invalid shard entry");
      }
      t.shards.push_back(std::move(s));
    }
    tables->push_back(std::move(t));
  }
  r.EndSection();
  if (version >= kVersionChained) {
    r.BeginSection();
    const uint64_t num_aux = r.ReadU64();
    if (!r.status().ok() || num_aux > 4096) return corrupt("bad aux count");
    for (uint64_t i = 0; i < num_aux; ++i) {
      AuxFileInfo a;
      a.file = r.ReadString();
      a.dir = r.ReadString();
      a.file_bytes = r.ReadU64();
      a.crc = r.ReadU32();
      if (!r.status().ok()) return corrupt("truncated aux entry");
      if (a.file.empty() || a.file.find('/') != std::string::npos ||
          !ValidDirRef(a.dir)) {
        return corrupt("invalid aux entry");
      }
      aux->push_back(std::move(a));
    }
    r.EndSection();
  }
  r.VerifyFooter();
  if (!r.status().ok()) {
    return corrupt(r.status().message());
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteStore(const std::string& dir,
                        const std::vector<TableSource>& tables,
                        const WriteOptions& options) {
  if (tables.empty()) {
    return util::Status::InvalidArgument("store export needs at least one table");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create store dir " + dir + ": " +
                                 ec.message());
  }

  std::vector<TableInfo> manifest;
  for (const TableSource& src : tables) {
    if (src.data == nullptr || src.rows <= 0 || src.cols <= 0) {
      return util::Status::InvalidArgument("store table " + src.name +
                                           " has no data");
    }
    TableInfo info;
    info.name = src.name;
    info.rows = src.rows;
    info.cols = src.cols;
    info.dtype = options.dtype;

    const int64_t want = std::max<int64_t>(1, options.shards);
    const int64_t rows_per_shard = (src.rows + want - 1) / want;
    const int64_t num_shards = (src.rows + rows_per_shard - 1) / rows_per_shard;
    info.shards.resize(static_cast<size_t>(num_shards));
    std::vector<double> max_errs(static_cast<size_t>(num_shards), 0.0);
    std::vector<double> sum_errs(static_cast<size_t>(num_shards), 0.0);
    std::vector<util::Status> shard_status(static_cast<size_t>(num_shards));

    // Shards cover disjoint row ranges, so they build and commit in parallel.
    util::ThreadPool::Global()->ParallelFor(
        0, num_shards, /*grain=*/1, [&](int64_t lo, int64_t hi) {
          for (int64_t si = lo; si < hi; ++si) {
            const int64_t begin = si * rows_per_shard;
            const int64_t count = std::min(rows_per_shard, src.rows - begin);
            shard_status[static_cast<size_t>(si)] = WriteShardFile(
                dir, ShardFileName(src.name, si), src.name,
                src.data + begin * src.cols, begin, count, src.cols,
                options.dtype, &info.shards[static_cast<size_t>(si)],
                &max_errs[static_cast<size_t>(si)],
                &sum_errs[static_cast<size_t>(si)]);
          }
        });
    for (const util::Status& st : shard_status) BOOTLEG_RETURN_IF_ERROR(st);

    if (options.dtype == Dtype::kInt8) {
      double sum = 0.0;
      for (int64_t si = 0; si < num_shards; ++si) {
        info.max_abs_error =
            std::max(info.max_abs_error, max_errs[static_cast<size_t>(si)]);
        sum += sum_errs[static_cast<size_t>(si)];
      }
      info.mean_abs_error =
          sum / (static_cast<double>(src.rows) * static_cast<double>(src.cols));
    }
    manifest.push_back(std::move(info));
  }

  // MANIFEST last: its presence certifies every shard above was committed.
  util::AtomicFileWriter atomic(dir + "/" + kManifestName);
  util::BinaryWriter w(atomic.temp_path());
  SaveManifestTo(&w, kVersion, manifest, {});
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

util::Status WriteTableShard(const std::string& dir, const std::string& file,
                             const std::string& table, const float* data,
                             int64_t row_begin, int64_t row_count,
                             int64_t cols, Dtype dtype, ShardInfo* info,
                             double* max_abs_error, double* sum_abs_error) {
  if (data == nullptr || row_count <= 0 || cols <= 0) {
    return util::Status::InvalidArgument("delta shard for " + table +
                                         " has no rows");
  }
  if (file.empty() || file.find('/') != std::string::npos) {
    return util::Status::InvalidArgument("bad shard file name: " + file);
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create store dir " + dir + ": " +
                                 ec.message());
  }
  double max_err = 0.0, sum_err = 0.0;
  BOOTLEG_RETURN_IF_ERROR(WriteShardFile(dir, file, table, data, row_begin,
                                         row_count, cols, dtype, info,
                                         &max_err, &sum_err));
  if (max_abs_error != nullptr) *max_abs_error = max_err;
  if (sum_abs_error != nullptr) *sum_abs_error = sum_err;
  return util::Status::OK();
}

util::Status WriteChainedManifest(const std::string& dir,
                                  const std::vector<TableInfo>& tables,
                                  const std::vector<AuxFileInfo>& aux) {
  for (const TableInfo& t : tables) {
    for (const ShardInfo& s : t.shards) {
      if (!ValidDirRef(s.dir)) {
        return util::Status::InvalidArgument("bad shard dir ref: " + s.dir);
      }
    }
  }
  for (const AuxFileInfo& a : aux) {
    if (!ValidDirRef(a.dir)) {
      return util::Status::InvalidArgument("bad aux dir ref: " + a.dir);
    }
  }
  util::AtomicFileWriter atomic(dir + "/" + kManifestName);
  util::BinaryWriter w(atomic.temp_path());
  SaveManifestTo(&w, kVersionChained, tables, aux);
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

MappedFile::~MappedFile() { Reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

util::Status MappedFile::Map(const std::string& path) {
  Reset();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return util::Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return util::Status::IOError("stat " + path + ": " + err);
  }
  if (st.st_size == 0) {
    ::close(fd);
    return util::Status::Corruption("empty file: " + path);
  }
  void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (p == MAP_FAILED) {
    return util::Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  data_ = static_cast<uint8_t*>(p);
  size_ = static_cast<uint64_t>(st.st_size);
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

namespace {

/// Rows a gather keeps in flight ahead of its copy, so the copy does not
/// wait out each row's miss. In store_bench (uniform-random ids over a
/// 20k-row table) 8 rows read faster than 32 for 512-byte float rows and no
/// slower for 128-byte int8 rows.
constexpr int64_t kPrefetchRows = 8;

/// Pulls [p, p + bytes) toward L1 ahead of a row copy.
void PrefetchBytes(const void* p, int64_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (const char* end = c + bytes; c < end; c += 64) {
    __builtin_prefetch(c, 0, 3);
  }
}

}  // namespace

void HeapView::GatherRows(const int64_t* ids, int64_t n, float* dst) const {
  const int64_t row_bytes = cols_ * static_cast<int64_t>(sizeof(float));
  for (int64_t i = 0; i < std::min(kPrefetchRows, n); ++i) {
    PrefetchBytes(data_ + ids[i] * cols_, row_bytes);
  }
  for (int64_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      PrefetchBytes(data_ + ids[i + kPrefetchRows] * cols_, row_bytes);
    }
    std::memcpy(dst + i * cols_, data_ + ids[i] * cols_,
                static_cast<size_t>(row_bytes));
  }
}

/// The view over one mapped table, either dtype: rows are located through
/// the table's ShardTiling, then copied (float32) or dequantized (int8,
/// through the SIMD core, bit-identical to DequantizeRow: int8→f32 is exact
/// and the one multiply per element is correctly rounded).
class MappedView : public StoreView {
 public:
  MappedView(const EmbeddingStore::MappedTable* table,
             ResidencyManager* residency, size_t table_index)
      : table_(table), residency_(residency), table_index_(table_index) {}

  int64_t rows() const override { return table_->info.rows; }
  int64_t cols() const override { return table_->info.cols; }

  void GatherRows(const int64_t* ids, int64_t n, float* dst) const override {
    if (n <= 0) return;
    GatherRowsCounter()->Add(n);  // one update for the whole batch
    // Batch-ahead residency: bump the popularity of every touched shard and
    // WILLNEED the rows of any evicted one before the loop below faults.
    if (residency_ != nullptr) residency_->WillGather(table_index_, ids, n);
    const int64_t cols = table_->info.cols;
    const bool int8 = table_->info.dtype == Dtype::kInt8;
    const int64_t row_bytes =
        cols * static_cast<int64_t>(ElemBytes(table_->info.dtype));
    // Each row is located once, when it enters the prefetch window; the
    // window's ring holds its address until the copy.
    struct Row {
      const uint8_t* data;
      const float* scale;  // int8 only
    };
    Row window[kPrefetchRows];
    const auto enter = [&](int64_t i) {
      int64_t local;
      const EmbeddingStore::MappedShard& s =
          table_->shards[static_cast<size_t>(
              table_->tiling.Locate(ids[i], &local))];
      Row& row = window[i % kPrefetchRows];
      row.data = s.rows + local * row_bytes;
      row.scale = int8 ? s.scales + local : nullptr;
      if (int8) __builtin_prefetch(row.scale, 0, 3);
      PrefetchBytes(row.data, row_bytes);
    };
    for (int64_t i = 0; i < std::min(kPrefetchRows, n); ++i) enter(i);
    for (int64_t i = 0; i < n; ++i) {
      const Row row = window[i % kPrefetchRows];
      if (i + kPrefetchRows < n) enter(i + kPrefetchRows);
      float* out = dst + i * cols;
      if (int8) {
        backend::DequantRow(reinterpret_cast<const int8_t*>(row.data), cols,
                            *row.scale, out);
      } else {
        std::memcpy(out, row.data, static_cast<size_t>(row_bytes));
      }
    }
  }

 private:
  const EmbeddingStore::MappedTable* table_;  // borrowed from the store
  ResidencyManager* residency_;               // nullable; owned by the store
  size_t table_index_;  // in the store's tables and the manager's alike
};

// ---------------------------------------------------------------------------
// EmbeddingStore
// ---------------------------------------------------------------------------

util::StatusOr<std::unique_ptr<EmbeddingStore>> EmbeddingStore::Open(
    const std::string& dir) {
  std::unique_ptr<EmbeddingStore> store(new EmbeddingStore());
  util::Status st = store->Load(dir);
  if (!st.ok()) return st;
  return store;
}

util::Status EmbeddingStore::Load(const std::string& dir) {
  dir_ = dir;
  BOOTLEG_RETURN_IF_ERROR(
      LoadManifest(dir + "/" + kManifestName, &tables_, &aux_));

  for (const TableInfo& info : tables_) {
    MappedTable mt;
    mt.info = info;
    if (info.shards.empty()) {
      return util::Status::Corruption("store table " + info.name +
                                      " has no shards: " + dir);
    }
    // Shard ranges must tile [0, rows) contiguously with no empty shards.
    // A flat export tiles uniformly (O(1) divide lookup); a delta chain
    // appends small ragged shards, for which lookups binary-search the
    // cumulative boundaries instead.
    int64_t expect_begin = 0;
    std::vector<int64_t>& row_begins = mt.tiling.row_begins;
    row_begins.reserve(info.shards.size() + 1);
    for (const ShardInfo& shard : info.shards) {
      if (shard.row_begin != expect_begin) {
        return util::Status::Corruption("store table " + info.name +
                                        " shard ranges are not contiguous");
      }
      if (shard.row_count <= 0) {
        return util::Status::Corruption("store table " + info.name +
                                        " has an empty shard: " + dir);
      }
      row_begins.push_back(shard.row_begin);
      expect_begin += shard.row_count;
    }
    row_begins.push_back(expect_begin);
    if (expect_begin != info.rows) {
      return util::Status::Corruption("store table " + info.name +
                                      " shards do not cover every row");
    }
    const int64_t tile = info.shards[0].row_count;
    bool uniform = info.shards.back().row_count <= tile;
    for (size_t si = 0; si + 1 < info.shards.size() && uniform; ++si) {
      uniform = info.shards[si].row_count == tile;
    }
    mt.tiling.rows_per_shard = uniform ? tile : 0;

    for (const ShardInfo& shard : info.shards) {
      const std::string path = ResolveChained(dir, shard.dir, shard.file);
      auto corrupt = [&path](const std::string& what) {
        return util::Status::Corruption("store shard: " + what + ": " + path);
      };

      // Header parse + checksum through the bounded reader, then map.
      util::BinaryReader r(path);
      if (!r.status().ok()) return corrupt("unreadable");
      if (r.ReadU32() != kShardMagic) return corrupt("bad magic");
      if (r.ReadU32() != kVersion) return corrupt("unsupported version");
      r.BeginSection();
      const std::string table_name = r.ReadString();
      const Dtype dtype = static_cast<Dtype>(r.ReadU32());
      const int64_t row_begin = r.ReadI64();
      const int64_t row_count = r.ReadI64();
      const int64_t cols = r.ReadI64();
      const uint64_t payload_bytes = r.ReadU64();
      r.EndSection();
      if (!r.status().ok()) return corrupt(r.status().message());
      if (table_name != info.name || dtype != info.dtype ||
          row_begin != shard.row_begin || row_count != shard.row_count ||
          cols != info.cols ||
          payload_bytes != PayloadBytes(info.dtype, row_count, cols)) {
        return corrupt("header disagrees with manifest");
      }
      const uint64_t header_end = r.consumed();
      const uint64_t payload_offset = AlignUp(header_end);
      // payload + trailing CRC word + footer (magic u32 + length u64).
      const uint64_t want_bytes = payload_offset + payload_bytes + 4 + 12;

      MappedShard ms;
      util::Status mst = ms.file.Map(path);
      if (!mst.ok()) {
        return mst.code() == util::StatusCode::kCorruption
                   ? mst
                   : corrupt(mst.message());
      }
      if (ms.file.size() != want_bytes || shard.file_bytes != want_bytes) {
        return corrupt("size mismatch (truncated or trailing garbage)");
      }
      const uint8_t* base = ms.file.data();
      // The alignment padding sits outside both the header-section CRC and
      // the payload CRC, so it gets its own check: it must be all zero.
      for (uint64_t i = header_end; i < payload_offset; ++i) {
        if (base[i] != 0) return corrupt("nonzero alignment padding");
      }
      uint32_t footer_magic = 0;
      uint64_t footer_len = 0;
      std::memcpy(&footer_magic, base + ms.file.size() - 12, 4);
      std::memcpy(&footer_len, base + ms.file.size() - 8, 8);
      if (footer_magic != util::kFooterMagic ||
          footer_len != ms.file.size() - 12) {
        return corrupt("bad footer");
      }
      ms.payload = base + payload_offset;
      ms.payload_bytes = payload_bytes;
      if (info.dtype == Dtype::kInt8) {
        ms.scales = reinterpret_cast<const float*>(ms.payload);
        ms.rows = ms.payload + static_cast<uint64_t>(row_count) * 4;
      } else {
        ms.scales = nullptr;
        ms.rows = ms.payload;
      }
      mt.shards.push_back(std::move(ms));
    }
    mapped_.push_back(std::move(mt));
  }

  // Aux files: exact-size check at open (cheap truncation/garbage catch);
  // their byte content is verified by Verify() like shard payloads.
  for (const AuxFileInfo& a : aux_) {
    const std::string path = AuxPath(a);
    std::error_code ec;
    const uint64_t size = fs::file_size(path, ec);
    if (ec || size != a.file_bytes) {
      return util::Status::Corruption("store aux file size mismatch: " + path);
    }
  }
  return util::Status::OK();
}

util::Status EmbeddingStore::Verify() const {
  for (const AuxFileInfo& a : aux_) {
    const std::string path = AuxPath(a);
    auto contents = util::ReadTextFile(path);
    if (!contents.ok() || contents.value().size() != a.file_bytes ||
        util::Crc32(contents.value().data(), contents.value().size()) !=
            a.crc) {
      return util::Status::Corruption("store aux file checksum mismatch: " +
                                      path);
    }
  }
  for (const MappedTable& mt : mapped_) {
    for (size_t si = 0; si < mt.shards.size(); ++si) {
      const MappedShard& ms = mt.shards[si];
      const ShardInfo& shard = mt.info.shards[si];
      const uint32_t computed = util::Crc32(ms.payload, ms.payload_bytes);
      uint32_t stored = 0;
      std::memcpy(&stored, ms.payload + ms.payload_bytes, 4);
      if (computed != stored || computed != shard.payload_crc) {
        return util::Status::Corruption("store shard payload checksum "
                                        "mismatch: " +
                                        dir_ + "/" + shard.file);
      }
    }
  }
  return util::Status::OK();
}

std::string EmbeddingStore::AuxPath(const AuxFileInfo& aux) const {
  return ResolveChained(dir_, aux.dir, aux.file);
}

const TableInfo* EmbeddingStore::FindTable(const std::string& name) const {
  for (const TableInfo& t : tables_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

uint64_t EmbeddingStore::mapped_bytes() const {
  uint64_t total = 0;
  for (const MappedTable& mt : mapped_) {
    for (const MappedShard& ms : mt.shards) total += ms.file.size();
  }
  return total;
}

int64_t EmbeddingStore::num_shards() const {
  int64_t total = 0;
  for (const MappedTable& mt : mapped_) {
    total += static_cast<int64_t>(mt.shards.size());
  }
  return total;
}

util::StatusOr<std::shared_ptr<StoreView>> EmbeddingStore::View(
    const std::string& name) const {
  // The residency manager registers tables in mapped_ order, so a table's
  // index here is its index there too.
  for (size_t ti = 0; ti < mapped_.size(); ++ti) {
    if (mapped_[ti].info.name != name) continue;
    return std::shared_ptr<StoreView>(
        new MappedView(&mapped_[ti], residency_.get(), ti));
  }
  return util::Status::NotFound("store has no table named " + name);
}

void EmbeddingStore::EnableResidency(const ResidencyOptions& options,
                                     const ResidencyManager* previous) {
  if (options.budget_bytes <= 0 || residency_ != nullptr) return;
  std::vector<ResidencyTableSpec> specs;
  specs.reserve(mapped_.size());
  for (const MappedTable& mt : mapped_) {
    ResidencyTableSpec spec;
    spec.name = mt.info.name;
    spec.tiling = mt.tiling;
    spec.shards.reserve(mt.shards.size());
    for (const MappedShard& ms : mt.shards) {
      // Advise the whole mapped file: the base is page-aligned (an mmap
      // return value) as madvise/mincore require, and re-reading the header
      // pages after an eviction is harmless.
      spec.shards.push_back(ResidencyShardSpec{ms.file.data(),
                                               static_cast<size_t>(ms.file.size())});
    }
    specs.push_back(std::move(spec));
  }
  residency_ = std::make_unique<ResidencyManager>(options, std::move(specs));
  if (previous != nullptr) residency_->SeedFrom(*previous);
  residency_->Start();
}

ResidencyStats EmbeddingStore::residency_stats() const {
  return residency_ != nullptr ? residency_->stats() : ResidencyStats{};
}

util::StatusOr<std::unique_ptr<EmbeddingStore>> OpenNewestGeneration(
    const std::string& dir, int64_t* generation) {
  // A MANIFEST directly in `dir` is a fixed single-generation deployment.
  if (fs::exists(fs::path(dir) / kManifestName)) {
    auto store = EmbeddingStore::Open(dir);
    if (store.ok() && generation != nullptr) *generation = 0;
    return store;
  }

  std::vector<std::pair<int64_t, std::string>> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("gen_", 0) != 0) continue;
    // Require a digit right after "gen_": strtoll would otherwise accept a
    // sign ("gen_-1"), and a negative generation collides with the engine's
    // -1 "no store" sentinel.
    if (name.size() <= 4 ||
        !std::isdigit(static_cast<unsigned char>(name[4]))) {
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const long long num = std::strtoll(name.c_str() + 4, &end, 10);
    if (end == name.c_str() + 4 || *end != '\0' || errno != 0) continue;
    candidates.emplace_back(static_cast<int64_t>(num), entry.path().string());
  }
  if (ec) {
    return util::Status::IOError("cannot scan store dir " + dir + ": " +
                                 ec.message());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [num, path] : candidates) {
    auto store = EmbeddingStore::Open(path);
    if (store.ok()) {
      if (generation != nullptr) *generation = num;
      return store;
    }
    BOOTLEG_LOG(Warning) << "skipping store generation " << path << ": "
                         << store.status().ToString();
  }
  return util::Status::NotFound("no servable store generation under " + dir);
}

}  // namespace bootleg::store
