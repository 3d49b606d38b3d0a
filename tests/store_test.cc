// Embedding-store subsystem: int8 quantization must round-trip within the
// per-row half-step bound, float stores must reproduce their source bytes
// exactly, every view kind must gather a batch exactly as it gathers each id
// alone, every corrupted shard or manifest variant (truncation, byte flip,
// trailing garbage) must fail with kCorruption and never crash, the
// generation scan must pick the newest servable directory and skip corrupt
// ones, and an engine serving from a float store must be bit-identical to
// the in-memory frozen path (int8 within tolerance, identical argmax).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/example.h"
#include "data/generator.h"
#include "data/world.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "store/embedding_store.h"
#include "util/crc32.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("bootleg_store_test_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<float> RandomTable(int64_t rows, int64_t cols, uint64_t seed,
                               float magnitude = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(rows * cols));
  for (float& v : data) {
    v = magnitude * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
  }
  return data;
}

// --- Quantization ------------------------------------------------------------

TEST(QuantizeTest, RoundTripErrorWithinHalfStepPerRow) {
  util::Rng rng(99);
  const int64_t cols = 37;
  std::vector<float> row(static_cast<size_t>(cols));
  std::vector<int8_t> q(static_cast<size_t>(cols));
  std::vector<float> back(static_cast<size_t>(cols));

  // Property sweep over magnitudes spanning tiny to large rows: every
  // reconstructed value must sit within RowErrorBound(scale) = scale/2, and
  // the row maximum must quantize to ±127 exactly (symmetric scheme).
  for (const float magnitude : {1e-4f, 0.01f, 1.0f, 35.0f, 1e4f}) {
    for (int trial = 0; trial < 20; ++trial) {
      for (float& v : row) {
        v = magnitude * (2.0f * static_cast<float>(rng.Uniform()) - 1.0f);
      }
      const float scale = store::QuantizeRow(row.data(), cols, q.data());
      ASSERT_GT(scale, 0.0f);
      store::DequantizeRow(q.data(), cols, scale, back.data());
      float max_abs = 0.0f;
      for (int64_t j = 0; j < cols; ++j) {
        max_abs = std::max(max_abs, std::fabs(row[static_cast<size_t>(j)]));
        EXPECT_LE(std::fabs(row[static_cast<size_t>(j)] -
                            back[static_cast<size_t>(j)]),
                  store::RowErrorBound(scale) * (1.0f + 1e-5f))
            << "magnitude=" << magnitude << " trial=" << trial << " col=" << j;
      }
      EXPECT_FLOAT_EQ(scale, max_abs / 127.0f);
    }
  }
}

TEST(QuantizeTest, ZeroRowsAndConstantRowsAreExact) {
  const int64_t cols = 16;
  std::vector<float> row(static_cast<size_t>(cols), 0.0f);
  std::vector<int8_t> q(static_cast<size_t>(cols), 111);
  std::vector<float> back(static_cast<size_t>(cols), 1.0f);

  // All-zero row: scale 0, every quantized byte 0, exact reconstruction.
  EXPECT_EQ(store::QuantizeRow(row.data(), cols, q.data()), 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);
  store::DequantizeRow(q.data(), cols, 0.0f, back.data());
  for (float v : back) EXPECT_EQ(v, 0.0f);

  // Constant row: every value is the row max, so it maps to exactly ±127
  // and reconstructs with zero error.
  for (size_t j = 0; j < row.size(); ++j) row[j] = (j % 2 == 0) ? 0.5f : -0.5f;
  const float scale = store::QuantizeRow(row.data(), cols, q.data());
  store::DequantizeRow(q.data(), cols, scale, back.data());
  for (size_t j = 0; j < row.size(); ++j) EXPECT_FLOAT_EQ(back[j], row[j]);
}

// --- Write / open round trips ------------------------------------------------

TEST(EmbeddingStoreTest, FloatStoreRoundTripsBitExactly) {
  const std::string dir = TestDir("float_roundtrip");
  const int64_t rows = 23, cols = 12;  // uneven: last shard is short
  const std::vector<float> data = RandomTable(rows, cols, 7);

  store::WriteOptions options;
  options.dtype = store::Dtype::kFloat32;
  options.shards = 4;
  ASSERT_TRUE(
      store::WriteStore(dir, {{"static", data.data(), rows, cols}}, options)
          .ok());

  auto opened = store::EmbeddingStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const store::EmbeddingStore& es = *opened.value();
  ASSERT_TRUE(es.Verify().ok());
  ASSERT_EQ(es.tables().size(), 1u);
  EXPECT_EQ(es.tables()[0].rows, rows);
  EXPECT_EQ(es.tables()[0].cols, cols);
  EXPECT_EQ(es.tables()[0].shards.size(), 4u);
  EXPECT_EQ(es.tables()[0].max_abs_error, 0.0);
  EXPECT_GT(es.mapped_bytes(), 0u);
  EXPECT_EQ(es.num_shards(), 4);

  auto view = es.View("static");
  ASSERT_TRUE(view.ok());
  // Every row must reproduce the source bytes exactly (the bit-identical
  // serving guarantee rests on this).
  std::vector<int64_t> ids(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) ids[static_cast<size_t>(r)] = r;
  std::vector<float> got(data.size());
  view.value()->GatherRows(ids.data(), rows, got.data());
  EXPECT_EQ(std::memcmp(got.data(), data.data(), data.size() * sizeof(float)),
            0);
  EXPECT_FALSE(es.View("missing").ok());
}

TEST(EmbeddingStoreTest, Int8StoreRoundTripsWithinRecordedErrorBound) {
  const std::string dir = TestDir("int8_roundtrip");
  const int64_t rows = 40, cols = 9;
  std::vector<float> data = RandomTable(rows, cols, 21, 3.0f);
  // Include an all-zero row: it must survive quantization untouched.
  for (int64_t j = 0; j < cols; ++j) data[static_cast<size_t>(5 * cols + j)] = 0.0f;

  store::WriteOptions options;
  options.dtype = store::Dtype::kInt8;
  options.shards = 3;
  ASSERT_TRUE(
      store::WriteStore(dir, {{"static", data.data(), rows, cols}}, options)
          .ok());

  auto opened = store::EmbeddingStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value()->Verify().ok());
  const store::TableInfo* info = opened.value()->FindTable("static");
  ASSERT_NE(info, nullptr);
  EXPECT_GT(info->max_abs_error, 0.0);
  EXPECT_GT(info->mean_abs_error, 0.0);
  EXPECT_LE(info->mean_abs_error, info->max_abs_error);

  auto view = opened.value()->View("static");
  ASSERT_TRUE(view.ok());
  std::vector<float> got(static_cast<size_t>(cols));
  double max_err = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    view.value()->GatherRows(&r, 1, got.data());
    float row_max = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      row_max =
          std::max(row_max, std::fabs(data[static_cast<size_t>(r * cols + j)]));
    }
    const float bound = store::RowErrorBound(row_max / 127.0f);
    for (int64_t j = 0; j < cols; ++j) {
      const double err =
          std::fabs(static_cast<double>(got[static_cast<size_t>(j)]) -
                    static_cast<double>(data[static_cast<size_t>(r * cols + j)]));
      EXPECT_LE(err, static_cast<double>(bound) * (1.0 + 1e-5))
          << "row " << r << " col " << j;
      max_err = std::max(max_err, err);
    }
    if (r == 5) {
      for (float v : got) EXPECT_EQ(v, 0.0f);  // the zeroed row, exact
    }
  }
  // The manifest's recorded maximum must match what the mapped rows deliver.
  EXPECT_NEAR(max_err, info->max_abs_error, 1e-7);
}

// --- Corruption fuzzing ------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Open + full checksum walk — the reload probe the fuzz sweep drives.
util::Status OpenAndVerify(const std::string& dir) {
  auto opened = store::EmbeddingStore::Open(dir);
  if (!opened.ok()) return opened.status();
  return opened.value()->Verify();
}

/// Every truncation offset, every single-byte flip, and trailing garbage of
/// `target` (one file inside the store directory) must yield kCorruption
/// from Open+Verify — never a crash or a silent success.
void FuzzStoreFile(const std::string& dir, const std::string& target) {
  const std::string good = ReadAll(target);
  ASSERT_FALSE(good.empty());
  ASSERT_TRUE(OpenAndVerify(dir).ok());

  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteAll(target, good.substr(0, cut));
    const util::Status st = OpenAndVerify(dir);
    ASSERT_FALSE(st.ok()) << target << " truncated at " << cut << " loaded";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << target << " truncated at " << cut << ": " << st.ToString();
  }
  for (size_t at = 0; at < good.size(); ++at) {
    std::string flipped = good;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    WriteAll(target, flipped);
    const util::Status st = OpenAndVerify(dir);
    ASSERT_FALSE(st.ok()) << target << " flip at " << at << " loaded";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << target << " flip at " << at << ": " << st.ToString();
  }
  WriteAll(target, good + std::string(16, '\x5a'));
  const util::Status st = OpenAndVerify(dir);
  ASSERT_FALSE(st.ok());
  ASSERT_EQ(st.code(), util::StatusCode::kCorruption);

  WriteAll(target, good);  // restore for the next sweep
  ASSERT_TRUE(OpenAndVerify(dir).ok());
}

TEST(StoreFuzzTest, CorruptShardsAndManifestAlwaysFailAsCorruption) {
  const std::string dir = TestDir("fuzz");
  const int64_t rows = 8, cols = 4;  // tiny: the sweep is O(file bytes²)
  const std::vector<float> data = RandomTable(rows, cols, 3);
  for (const store::Dtype dtype :
       {store::Dtype::kFloat32, store::Dtype::kInt8}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    store::WriteOptions options;
    options.dtype = dtype;
    options.shards = 2;
    ASSERT_TRUE(
        store::WriteStore(dir, {{"static", data.data(), rows, cols}}, options)
            .ok());
    FuzzStoreFile(dir, dir + "/static.shard_000000.bin");
    FuzzStoreFile(dir, dir + "/static.shard_000001.bin");
    FuzzStoreFile(dir, dir + "/MANIFEST");
  }
}

TEST(StoreFuzzTest, MissingShardFailsWithoutCrashing) {
  const std::string dir = TestDir("missing_shard");
  const std::vector<float> data = RandomTable(6, 4, 11);
  store::WriteOptions options;
  options.shards = 2;
  ASSERT_TRUE(
      store::WriteStore(dir, {{"static", data.data(), 6, 4}}, options).ok());
  fs::remove(dir + "/static.shard_000001.bin");
  EXPECT_FALSE(store::EmbeddingStore::Open(dir).ok());
}

// --- Adversarial (internally consistent but malformed) stores ----------------

// The on-disk constants, duplicated from the writer on purpose: these tests
// craft stores byte-by-byte to exercise geometries the writer never emits.
constexpr uint32_t kTestManifestMagic = 0xB007E5D0;
constexpr uint32_t kTestShardMagic = 0xB007E5D1;
constexpr uint32_t kTestVersion = 1;
constexpr uint64_t kTestPayloadAlign = 64;

/// Writes one float32 shard file exactly as the store writer would (header,
/// aligned payload, payload CRC word, footer) for an arbitrary row range,
/// and fills `info` with the matching manifest entry.
void CraftFloatShard(const std::string& dir, const std::string& table,
                     int64_t shard_index, const std::vector<float>& data,
                     int64_t row_begin, int64_t row_count, int64_t cols,
                     store::ShardInfo* info) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard_%06lld.bin",
                static_cast<long long>(shard_index));
  info->file = table + suffix;
  info->row_begin = row_begin;
  info->row_count = row_count;

  util::BinaryWriter w(dir + "/" + info->file);
  w.WriteU32(kTestShardMagic);
  w.WriteU32(kTestVersion);
  w.BeginSection();
  w.WriteString(table);
  w.WriteU32(0);  // Dtype::kFloat32
  w.WriteI64(row_begin);
  w.WriteI64(row_count);
  w.WriteI64(cols);
  const uint64_t payload_bytes =
      static_cast<uint64_t>(row_count) * static_cast<uint64_t>(cols) * 4;
  w.WriteU64(payload_bytes);
  w.EndSection();
  const uint64_t aligned = (w.bytes_written() + kTestPayloadAlign - 1) /
                           kTestPayloadAlign * kTestPayloadAlign;
  const std::string zeros(aligned - w.bytes_written(), '\0');
  w.WriteRaw(zeros.data(), zeros.size());
  const float* rows = data.data() + row_begin * cols;
  info->payload_crc = util::Crc32(rows, payload_bytes);
  w.WriteRaw(rows, payload_bytes);
  w.WriteU32(info->payload_crc);
  w.WriteFooter();
  info->file_bytes = w.bytes_written();
  ASSERT_TRUE(w.Finish().ok());
}

void CraftManifest(const std::string& dir, const std::string& table,
                   int64_t rows, int64_t cols,
                   const std::vector<store::ShardInfo>& shards) {
  util::BinaryWriter w(dir + "/MANIFEST");
  w.WriteU32(kTestManifestMagic);
  w.WriteU32(kTestVersion);
  w.BeginSection();
  w.WriteU64(1);  // one table
  w.WriteString(table);
  w.WriteI64(rows);
  w.WriteI64(cols);
  w.WriteU32(0);     // Dtype::kFloat32
  w.WriteF64(0.0);   // max_abs_error
  w.WriteF64(0.0);   // mean_abs_error
  w.WriteU64(shards.size());
  for (const store::ShardInfo& s : shards) {
    w.WriteString(s.file);
    w.WriteI64(s.row_begin);
    w.WriteI64(s.row_count);
    w.WriteU64(s.file_bytes);
    w.WriteU32(s.payload_crc);
  }
  w.EndSection();
  w.WriteFooter();
  ASSERT_TRUE(w.Finish().ok());
}

/// Crafts a store whose shard ranges are `{begin, count}` pairs over `data`,
/// with shard files fully consistent with the manifest (valid headers, CRCs,
/// footers) — only the geometry itself can be objectionable.
void CraftStore(const std::string& dir, const std::vector<float>& data,
                int64_t rows, int64_t cols,
                const std::vector<std::pair<int64_t, int64_t>>& ranges) {
  std::vector<store::ShardInfo> shards(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    CraftFloatShard(dir, "static", static_cast<int64_t>(i), data,
                    ranges[i].first, ranges[i].second, cols, &shards[i]);
  }
  CraftManifest(dir, "static", rows, cols, shards);
}

TEST(StoreFuzzTest, NonUniformTilingsOpenAndGatherEveryRow) {
  const int64_t rows = 30, cols = 4;
  const std::vector<float> data = RandomTable(rows, cols, 17);

  // Control: the writer's uniform-tile geometry must open — proving the
  // crafted bytes are valid before exercising the ragged geometries.
  const std::string good = TestDir("crafted_uniform");
  CraftStore(good, data, rows, cols, {{0, 15}, {15, 30 - 15}});
  ASSERT_TRUE(OpenAndVerify(good).ok());

  // Ragged tilings are what a delta chain produces: a big base shard plus
  // small appended shards (or vice versa). Each must open, verify, and
  // gather every row bit-exactly through the binary-search lookup path.
  const std::vector<std::vector<std::pair<int64_t, int64_t>>> tilings = {
      {{0, 10}, {10, 20}},                     // oversized last shard
      {{0, 27}, {27, 2}, {29, 1}},             // delta chain: base + 2 adds
      {{0, 1}, {1, 4}, {5, 20}, {25, 5}},      // fully irregular
  };
  int case_id = 0;
  for (const auto& ranges : tilings) {
    const std::string dir = TestDir("ragged_" + std::to_string(case_id++));
    CraftStore(dir, data, rows, cols, ranges);
    ASSERT_TRUE(OpenAndVerify(dir).ok());
    auto opened = store::EmbeddingStore::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto view = opened.value()->View("static");
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    std::vector<float> row(static_cast<size_t>(cols));
    for (int64_t r = 0; r < rows; ++r) {
      view.value()->GatherRows(&r, 1, row.data());
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(row[c], data[r * cols + c]) << "row " << r << " col " << c;
      }
    }
  }

  // Still rejected: gaps, overlaps, and coverage shortfalls.
  struct Bad {
    const char* name;
    std::vector<std::pair<int64_t, int64_t>> ranges;
  };
  const std::vector<Bad> bad = {
      {"gap", {{0, 10}, {12, 18}}},
      {"overlap", {{0, 12}, {10, 20}}},
      {"short", {{0, 10}, {10, 10}}},
  };
  for (const Bad& b : bad) {
    const std::string dir = TestDir(std::string("bad_") + b.name);
    CraftStore(dir, data, rows, cols, b.ranges);
    const util::Status st = OpenAndVerify(dir);
    ASSERT_FALSE(st.ok()) << b.name;
    EXPECT_EQ(st.code(), util::StatusCode::kCorruption) << b.name;
  }
}

// --- One gather path ---------------------------------------------------------

TEST(StoreViewTest, BatchGatherEqualsGatheringEachIdAloneInEveryView) {
  // GatherRows is the only way a row leaves a view. In every kind of view —
  // heap rows, a mapped float32 or int8 store on the writer's uniform
  // 8-shard tiling, and a ragged tiling as a delta chain leaves it — a batch
  // of repeated, out-of-order ids that straddle every shard boundary must
  // equal gathering each id alone, byte for byte, at batch sizes below and
  // above the prefetch windows. Float rows must also equal the source.
  const int64_t rows = 101, cols = 37;  // uneven shards, odd row width
  const std::vector<float> data = RandomTable(rows, cols, 33, 2.0f);
  const std::string dir = TestDir("one_gather_path");
  store::WriteOptions options;
  options.shards = 8;  // 13-row tiles, a 10-row last shard
  for (const store::Dtype dtype :
       {store::Dtype::kFloat32, store::Dtype::kInt8}) {
    options.dtype = dtype;
    ASSERT_TRUE(store::WriteStore(dir + "/" + store::DtypeName(dtype),
                                  {{"static", data.data(), rows, cols}},
                                  options)
                    .ok());
  }
  const std::string ragged = TestDir("one_gather_path_ragged");
  CraftStore(ragged, data, rows, cols, {{0, 90}, {90, 7}, {97, 3}, {100, 1}});

  struct Case {
    std::string name;
    std::shared_ptr<const store::StoreView> view;
    bool exact;  // rows are the source floats
  };
  std::vector<Case> cases = {
      {"heap", std::make_shared<store::HeapView>(data.data(), rows, cols),
       true}};
  std::vector<std::unique_ptr<store::EmbeddingStore>> stores;  // the mappings
  for (const auto& [name, path, exact] :
       std::vector<std::tuple<std::string, std::string, bool>>{
           {"float32", dir + "/float32", true},
           {"int8", dir + "/int8", false},
           {"ragged float32", ragged, true}}) {
    auto opened = store::EmbeddingStore::Open(path);
    ASSERT_TRUE(opened.ok()) << name << ": " << opened.status().ToString();
    stores.push_back(std::move(opened.value()));
    auto view = stores.back()->View("static");
    ASSERT_TRUE(view.ok()) << name;
    cases.push_back({name, view.value(), exact});
  }

  std::vector<int64_t> ids;
  for (const int64_t boundary : {13, 26, 39, 52, 65, 78, 90, 91, 97, 100}) {
    ids.push_back(boundary);
    ids.push_back(boundary - 1);
  }
  ids.push_back(0);
  ids.push_back(rows - 1);
  util::Rng rng(91);
  for (int i = 0; i < 400; ++i) ids.push_back(rng.UniformInt(0, rows - 1));

  const size_t row_bytes = static_cast<size_t>(cols) * sizeof(float);
  std::vector<float> row(static_cast<size_t>(cols));
  for (const Case& c : cases) {
    ASSERT_EQ(c.view->rows(), rows) << c.name;
    ASSERT_EQ(c.view->cols(), cols) << c.name;
    for (const int64_t n : {int64_t{1}, int64_t{3}, int64_t{40},
                            static_cast<int64_t>(ids.size())}) {
      std::vector<float> batch(static_cast<size_t>(n * cols), -1.0f);
      c.view->GatherRows(ids.data(), n, batch.data());
      for (int64_t i = 0; i < n; ++i) {
        const int64_t id = ids[static_cast<size_t>(i)];
        c.view->GatherRows(&id, 1, row.data());
        ASSERT_EQ(std::memcmp(row.data(), batch.data() + i * cols, row_bytes),
                  0)
            << c.name << " n=" << n << " row " << i << " id " << id;
        if (c.exact) {
          ASSERT_EQ(std::memcmp(row.data(), data.data() + id * cols, row_bytes),
                    0)
              << c.name << " id " << id;
        }
      }
    }
  }
}

// --- Generation scan ---------------------------------------------------------

TEST(GenerationScanTest, NewestValidGenerationWinsAndCorruptOnesAreSkipped) {
  const std::string dir = TestDir("generations");
  const std::vector<float> data = RandomTable(10, 6, 13);
  store::WriteOptions options;
  options.shards = 2;
  for (const std::string gen : {"gen_000001", "gen_000002", "gen_000003"}) {
    ASSERT_TRUE(store::WriteStore(dir + "/" + gen,
                                  {{"static", data.data(), 10, 6}}, options)
                    .ok());
  }
  // Corrupt the newest generation's manifest: the scan must fall back to 2.
  {
    const std::string manifest = dir + "/gen_000003/MANIFEST";
    std::string bytes = ReadAll(manifest);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    WriteAll(manifest, bytes);
  }
  int64_t generation = -1;
  auto opened = store::OpenNewestGeneration(dir, &generation);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(generation, 2);
  EXPECT_TRUE(opened.value()->dir().find("gen_000002") != std::string::npos);

  // A directory holding a MANIFEST directly is generation 0.
  int64_t flat_generation = -1;
  auto flat = store::OpenNewestGeneration(dir + "/gen_000001", &flat_generation);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat_generation, 0);

  // Nothing servable at all.
  const std::string empty = TestDir("generations_empty");
  EXPECT_EQ(store::OpenNewestGeneration(empty, &generation).status().code(),
            util::StatusCode::kNotFound);
}

TEST(GenerationScanTest, SignPrefixedGenerationNamesAreIgnored) {
  const std::string dir = TestDir("generations_signed");
  const std::vector<float> data = RandomTable(6, 4, 19);
  store::WriteOptions options;
  options.shards = 1;
  // Perfectly valid stores under sign-prefixed names: strtoll would happily
  // parse "gen_-1" (colliding with the engine's -1 "no store" sentinel) and
  // "gen_+1"; the scan must treat these — and outright non-numeric names —
  // as foreign directories, not generations.
  for (const std::string gen : {"gen_-1", "gen_+1", "gen_x"}) {
    ASSERT_TRUE(store::WriteStore(dir + "/" + gen,
                                  {{"static", data.data(), 6, 4}}, options)
                    .ok());
  }
  int64_t generation = -7;
  EXPECT_EQ(store::OpenNewestGeneration(dir, &generation).status().code(),
            util::StatusCode::kNotFound);

  // A digit-named sibling is still picked up among the ignored ones.
  ASSERT_TRUE(store::WriteStore(dir + "/gen_5",
                                {{"static", data.data(), 6, 4}}, options)
                  .ok());
  auto opened = store::OpenNewestGeneration(dir, &generation);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(generation, 5);
}

// --- Engine equivalence ------------------------------------------------------

/// One tiny world + saved dataset + saved model, shared across engine tests
/// (mirrors serve_test's fixture; rebuilt here so the two test binaries stay
/// independent).
struct StoreWorld {
  std::string data_dir;
  std::string model_path;
  std::string store_root;
  data::SynthWorld world;
  data::Corpus corpus;
};

core::BootlegConfig ServingConfig() {
  core::BootlegConfig config;
  config.encoder.max_len = 32;
  return config;
}

const StoreWorld& GetStoreWorld() {
  static const StoreWorld* shared = [] {
    auto* sw = new StoreWorld();
    data::SynthConfig config = data::SynthConfig::MicroScale();
    config.num_pages = 40;
    sw->world = data::BuildWorld(config);
    data::CorpusGenerator generator(&sw->world);
    sw->corpus = generator.Generate();
    sw->data_dir = TestDir("engine_world");
    BOOTLEG_CHECK(sw->world.kb.Save(sw->data_dir + "/kb.bin").ok());
    BOOTLEG_CHECK(
        sw->world.candidates.Save(sw->data_dir + "/candidates.bin").ok());
    BOOTLEG_CHECK(sw->world.vocab.Save(sw->data_dir + "/vocab.bin").ok());
    core::BootlegModel model(&sw->world.kb, sw->world.vocab.size(),
                             ServingConfig(), /*seed=*/123);
    sw->model_path = sw->data_dir + "/model.bin";
    BOOTLEG_CHECK(model.store().Save(sw->model_path).ok());

    // Export both dtypes from the model's own frozen table: generation 1 is
    // the float store, generation 2 the int8 store.
    model.PrepareFrozenInference();
    const tensor::Tensor& frozen = model.frozen_static();
    sw->store_root = TestDir("engine_store");
    store::WriteOptions wo;
    wo.shards = 3;
    wo.dtype = store::Dtype::kFloat32;
    BOOTLEG_CHECK(store::WriteStore(sw->store_root + "/gen_000001",
                                    {{"static", frozen.data(), frozen.size(0),
                                      frozen.size(1)}},
                                    wo)
                      .ok());
    wo.dtype = store::Dtype::kInt8;
    BOOTLEG_CHECK(store::WriteStore(sw->store_root + "/gen_000002",
                                    {{"static", frozen.data(), frozen.size(0),
                                      frozen.size(1)}},
                                    wo)
                      .ok());
    return sw;
  }();
  return *shared;
}

std::unique_ptr<serve::InferenceEngine> MakeEngine(
    const std::string& store_dir, int64_t resident_budget_bytes = 0,
    int64_t resident_sweep_ms = 1000) {
  const StoreWorld& sw = GetStoreWorld();
  serve::EngineOptions options;
  options.data_dir = sw.data_dir;
  options.model_path = sw.model_path;
  options.store_dir = store_dir;
  options.resident_budget_bytes = resident_budget_bytes;
  options.resident_sweep_ms = resident_sweep_ms;
  auto engine = serve::InferenceEngine::Create(options);
  BOOTLEG_CHECK_MSG(engine.ok(), engine.status().ToString());
  return std::move(engine.value());
}

std::vector<data::SentenceExample> DevExamples() {
  const StoreWorld& sw = GetStoreWorld();
  data::ExampleBuilder builder(&sw.world.candidates, &sw.world.vocab);
  data::ExampleOptions options;
  options.include_weak_labels = false;
  return builder.BuildAll(sw.corpus.dev, options);
}

TEST(StoreEngineTest, FloatStoreServingIsBitIdenticalToHeapPath) {
  const std::vector<data::SentenceExample> examples = DevExamples();
  ASSERT_GT(examples.size(), 8u);

  auto heap_engine = MakeEngine("");
  auto store_engine = MakeEngine(GetStoreWorld().store_root + "/gen_000001");
  ASSERT_TRUE(store_engine->model().frozen_from_store());
  EXPECT_FALSE(heap_engine->model().frozen_from_store());
  EXPECT_EQ(store_engine->store_generation(), 0);  // flat dir: generation 0

  core::BootlegModel::InferenceScratch heap_scratch, store_scratch;
  for (const int threads : {1, 4}) {
    util::ThreadPool::ResetGlobal(threads);
    for (const size_t batch_size :
         {size_t{1}, size_t{3}, size_t{8}, examples.size()}) {
      for (size_t begin = 0; begin < examples.size(); begin += batch_size) {
        const size_t end = std::min(examples.size(), begin + batch_size);
        std::vector<const data::SentenceExample*> batch;
        for (size_t i = begin; i < end; ++i) batch.push_back(&examples[i]);
        const auto want = heap_engine->PredictExamples(batch, &heap_scratch);
        const auto got = store_engine->PredictExamples(batch, &store_scratch);
        ASSERT_EQ(got, want) << "batch_size=" << batch_size
                             << " threads=" << threads << " begin=" << begin;
      }
    }
  }
  util::ThreadPool::ResetGlobal(1);
}

TEST(StoreEngineTest, MappedGatherCountsEachCandidateRowOnce) {
  // store.gather_rows counts the rows mapped views serve: one PredictBatch
  // over a float32 store adds exactly the batch's candidate-row count.
  const std::vector<data::SentenceExample> examples = DevExamples();
  auto engine = MakeEngine(GetStoreWorld().store_root + "/gen_000001");
  std::vector<const data::SentenceExample*> batch;
  int64_t candidate_rows = 0;
  for (const data::SentenceExample& ex : examples) {
    batch.push_back(&ex);
    if (ex.token_ids.empty()) continue;  // the forward skips such sentences
    for (const data::MentionExample& m : ex.mentions) {
      candidate_rows += static_cast<int64_t>(m.candidates.size());
    }
  }
  ASSERT_GT(candidate_rows, 0);
  const obs::Counter* gathered =
      obs::MetricsRegistry::Global().GetCounter("store.gather_rows");
  core::BootlegModel::InferenceScratch scratch;
  const int64_t before = gathered->value();
  engine->PredictExamples(batch, &scratch);
  EXPECT_EQ(gathered->value() - before, candidate_rows);
}

TEST(StoreEngineTest, Int8StoreMatchesArgmaxOnSyntheticWorld) {
  const std::vector<data::SentenceExample> examples = DevExamples();
  auto heap_engine = MakeEngine("");
  // The store root holds gen_000001 (float) and gen_000002 (int8); the scan
  // must serve the int8 generation.
  auto int8_engine = MakeEngine(GetStoreWorld().store_root);
  EXPECT_EQ(int8_engine->store_generation(), 2);
  ASSERT_NE(int8_engine->entity_store(), nullptr);
  EXPECT_EQ(int8_engine->entity_store()->FindTable("static")->dtype,
            store::Dtype::kInt8);

  core::BootlegModel::InferenceScratch heap_scratch, int8_scratch;
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  const auto want = heap_engine->PredictExamples(batch, &heap_scratch);
  const auto got = int8_engine->PredictExamples(batch, &int8_scratch);
  // Quantization error (≤ scale/2 per feature) is far below the synthetic
  // world's score margins: the argmax must not move on any mention.
  EXPECT_EQ(got, want);
}

TEST(StoreEngineTest, ReloadSwapsToNewerGenerationAndKeepsServingOnFailure) {
  const StoreWorld& sw = GetStoreWorld();
  const std::string root = TestDir("reload_generations");
  const auto copy_gen = [&](const std::string& name, const std::string& from) {
    fs::create_directories(root + "/" + name);
    fs::copy(from, root + "/" + name,
             fs::copy_options::overwrite_existing | fs::copy_options::recursive);
  };
  copy_gen("gen_000001", sw.store_root + "/gen_000001");
  auto engine = MakeEngine(root);
  EXPECT_EQ(engine->store_generation(), 1);

  // No newer generation: reload is a clean no-op.
  ASSERT_TRUE(engine->Reload().ok());
  EXPECT_EQ(engine->store_generation(), 1);

  // A corrupt newer generation is skipped; serving stays on 1.
  copy_gen("gen_000003", sw.store_root + "/gen_000002");
  {
    std::string bytes = ReadAll(root + "/gen_000003/MANIFEST");
    bytes[10] = static_cast<char>(bytes[10] ^ 0x40);
    WriteAll(root + "/gen_000003/MANIFEST", bytes);
  }
  ASSERT_TRUE(engine->Reload().ok());
  EXPECT_EQ(engine->store_generation(), 1);

  // A valid newer generation swaps in, and predictions keep matching the
  // heap reference (gen 2 here is the int8 export).
  copy_gen("gen_000002", sw.store_root + "/gen_000002");
  ASSERT_TRUE(engine->Reload().ok());
  EXPECT_EQ(engine->store_generation(), 2);

  const std::vector<data::SentenceExample> examples = DevExamples();
  auto heap_engine = MakeEngine("");
  core::BootlegModel::InferenceScratch a, b;
  std::vector<const data::SentenceExample*> batch;
  for (const data::SentenceExample& ex : examples) batch.push_back(&ex);
  EXPECT_EQ(engine->PredictExamples(batch, &a),
            heap_engine->PredictExamples(batch, &b));
}

TEST(StoreEngineTest, StatsSnapshotSurvivesConcurrentGenerationSwap) {
  const StoreWorld& sw = GetStoreWorld();
  const std::string root = TestDir("stats_race");
  const auto copy_gen = [&](const std::string& name, const std::string& from) {
    fs::create_directories(root + "/" + name);
    fs::copy(from, root + "/" + name,
             fs::copy_options::overwrite_existing | fs::copy_options::recursive);
  };
  copy_gen("gen_000001", sw.store_root + "/gen_000001");
  auto engine = MakeEngine(root);

  // Stats-op readers hammer the store snapshot exactly as the server does —
  // dereferencing num_shards()/mapped_bytes()/dir() — while the main thread
  // swaps generations underneath them. The shared_ptr snapshot must keep
  // whichever generation a reader grabbed mapped until it lets go (the
  // sanitizer gates turn a use-after-munmap here into a hard failure).
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto [es, generation] = engine->store_snapshot();
        EXPECT_NE(es, nullptr);
        if (es == nullptr) return;
        EXPECT_GT(es->num_shards(), 0);
        EXPECT_GT(es->mapped_bytes(), 0u);
        EXPECT_FALSE(es->dir().empty());
        EXPECT_GE(generation, 1);
      }
    });
  }
  for (int gen = 2; gen <= 20; ++gen) {
    char name[32];
    std::snprintf(name, sizeof(name), "gen_%06d", gen);
    // Alternate float and int8 exports so the swap also flips view types.
    copy_gen(name, sw.store_root +
                       (gen % 2 == 0 ? "/gen_000002" : "/gen_000001"));
    ASSERT_TRUE(engine->Reload().ok());
    EXPECT_EQ(engine->store_generation(), gen);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();
}

// --- Hot-set residency -------------------------------------------------------

TEST(ResidencyTest, AdvisoriesNeverChangeGatherResults) {
  const int64_t rows = 256;
  const int64_t cols = 16;
  const std::vector<float> data = RandomTable(rows, cols, 77, 2.0f);
  for (const store::Dtype dtype :
       {store::Dtype::kFloat32, store::Dtype::kInt8}) {
    const bool is_float = dtype == store::Dtype::kFloat32;
    const std::string dir =
        TestDir(is_float ? "residency_f32" : "residency_i8");
    store::WriteOptions options;
    options.shards = 8;
    options.dtype = dtype;
    ASSERT_TRUE(
        store::WriteStore(dir, {{"static", data.data(), rows, cols}}, options)
            .ok());

    auto unmanaged = std::move(store::EmbeddingStore::Open(dir).value());
    auto managed = std::move(store::EmbeddingStore::Open(dir).value());
    store::ResidencyOptions ro;
    // Budget well below table size so the clock must evict; manual sweeps
    // keep the schedule deterministic.
    ro.budget_bytes = static_cast<int64_t>(managed->mapped_bytes() / 4);
    ro.start_sweeper = false;
    managed->EnableResidency(ro);
    ASSERT_NE(managed->residency(), nullptr);

    EXPECT_EQ(unmanaged->residency(), nullptr);  // unmanaged: no manager
    auto uview = std::move(unmanaged->View("static").value());
    auto mview = std::move(managed->View("static").value());

    // Zipf-flavored id stream: every row once, plus a hot head revisited.
    std::vector<int64_t> ids;
    for (int64_t id = 0; id < rows; ++id) ids.push_back(id);
    for (int rep = 0; rep < 4; ++rep) {
      for (int64_t id = 0; id < rows / 8; ++id) ids.push_back(id);
    }
    const int64_t n = static_cast<int64_t>(ids.size());
    std::vector<float> want(static_cast<size_t>(n * cols));
    std::vector<float> got(static_cast<size_t>(n * cols));
    std::vector<float> wrow(static_cast<size_t>(cols));
    std::vector<float> grow(static_cast<size_t>(cols));
    for (int pass = 0; pass < 4; ++pass) {
      uview->GatherRows(ids.data(), n, want.data());
      mview->GatherRows(ids.data(), n, got.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << "pass=" << pass << " dtype=" << store::DtypeName(dtype);
      for (int64_t id = 0; id < rows; ++id) {
        uview->GatherRows(&id, 1, wrow.data());
        mview->GatherRows(&id, 1, grow.data());
        ASSERT_EQ(
            std::memcmp(wrow.data(), grow.data(), wrow.size() * sizeof(float)),
            0)
            << "pass=" << pass << " id=" << id;
        if (is_float) {
          // Float rows must also stay bit-identical to the exported source,
          // advisories or not.
          ASSERT_EQ(std::memcmp(grow.data(), data.data() + id * cols,
                                wrow.size() * sizeof(float)),
                    0)
              << "pass=" << pass << " id=" << id;
        }
      }
      managed->residency()->SweepOnce(/*warm_kept=*/pass == 0);
    }

    // The tight budget forced real clock activity: evictions happened and
    // later gathers re-faulted evicted shards back in — with zero effect on
    // the gathered bytes above.
    const store::ResidencyStats rs = managed->residency_stats();
    EXPECT_EQ(rs.budget_bytes, ro.budget_bytes);
    EXPECT_EQ(rs.sweeps, 4);
    EXPECT_GT(rs.evictions, 0);
    EXPECT_GT(rs.cold_faults, 0);
    EXPECT_GT(rs.prefetch_issued, 0);
    EXPECT_GT(rs.resident_shards, 0);  // the head stays pinned
  }
}

TEST(ResidencyTest, BudgetEdgeCases) {
  const int64_t rows = 64;
  const int64_t cols = 8;
  const std::vector<float> data = RandomTable(rows, cols, 91);
  const std::string dir = TestDir("residency_edges");
  store::WriteOptions options;
  options.shards = 4;
  ASSERT_TRUE(
      store::WriteStore(dir, {{"static", data.data(), rows, cols}}, options)
          .ok());

  // budget = 0: management stays off entirely — no manager, zeroed stats.
  {
    auto store = std::move(store::EmbeddingStore::Open(dir).value());
    store::ResidencyOptions ro;
    ro.budget_bytes = 0;
    store->EnableResidency(ro);
    EXPECT_EQ(store->residency(), nullptr);
    EXPECT_EQ(store->residency_stats().budget_bytes, 0);
    auto view = std::move(store->View("static").value());
    std::vector<float> row(static_cast<size_t>(cols));
    const int64_t first = 0;
    view->GatherRows(&first, 1, row.data());
    EXPECT_EQ(std::memcmp(row.data(), data.data(), row.size() * sizeof(float)),
              0);
  }

  // budget ≥ table size: everything stays resident, nothing is ever evicted
  // and no access ever cold-faults.
  {
    auto store = std::move(store::EmbeddingStore::Open(dir).value());
    store::ResidencyOptions ro;
    ro.budget_bytes = static_cast<int64_t>(store->mapped_bytes()) * 2;
    ro.start_sweeper = false;
    store->EnableResidency(ro);
    ASSERT_NE(store->residency(), nullptr);
    auto view = std::move(store->View("static").value());
    std::vector<int64_t> ids;
    for (int64_t id = 0; id < rows; ++id) ids.push_back(id);
    std::vector<float> buf(static_cast<size_t>(rows * cols));
    for (int pass = 0; pass < 3; ++pass) {
      view->GatherRows(ids.data(), rows, buf.data());
      store->residency()->SweepOnce(/*warm_kept=*/pass == 0);
    }
    ASSERT_EQ(std::memcmp(buf.data(), data.data(), buf.size() * sizeof(float)),
              0);
    const store::ResidencyStats rs = store->residency_stats();
    EXPECT_EQ(rs.evictions, 0);
    EXPECT_EQ(rs.cold_faults, 0);
    EXPECT_EQ(rs.resident_shards, store->num_shards());
    EXPECT_GT(rs.resident_bytes, 0);  // mincore sees the gathered pages
  }
}

TEST(ResidencyTest, EvictionAndPrefetchRaceGenerationSwapsSafely) {
  const StoreWorld& sw = GetStoreWorld();
  const std::string root = TestDir("residency_race");
  const auto copy_gen = [&](const std::string& name, const std::string& from) {
    fs::create_directories(root + "/" + name);
    fs::copy(from, root + "/" + name,
             fs::copy_options::overwrite_existing | fs::copy_options::recursive);
  };
  copy_gen("gen_000001", sw.store_root + "/gen_000001");
  // Tiny budget + aggressive sweep cadence: the background clock evicts and
  // re-admits shards continuously while traffic gathers through them and the
  // main thread swaps (and unmaps) generations. The sanitizer gates turn an
  // advisory chasing a dead mapping or a racy counter into a hard failure.
  auto engine = MakeEngine(root, /*resident_budget_bytes=*/16 << 10,
                           /*resident_sweep_ms=*/2);
  auto heap_engine = MakeEngine("");
  const std::vector<data::SentenceExample> examples = DevExamples();
  // A small batch keeps each traffic iteration short, so reloads (which
  // exclude traffic) interleave tightly with gathers instead of queueing
  // behind long predictions.
  std::vector<const data::SentenceExample*> batch;
  for (size_t i = 0; i < std::min<size_t>(examples.size(), 4); ++i) {
    batch.push_back(&examples[i]);
  }
  core::BootlegModel::InferenceScratch heap_scratch;
  const auto want = heap_engine->PredictExamples(batch, &heap_scratch);

  // Mirror the server's reload discipline: traffic holds the shared side,
  // generation swaps the exclusive side (the batcher's reload_mu_).
  std::shared_mutex reload_mu;
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&] {
      core::BootlegModel::InferenceScratch scratch;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          std::shared_lock<std::shared_mutex> lock(reload_mu);
          // Both the float and the int8 generation must keep matching the
          // heap reference mid-race (bit-identical / argmax-identical).
          EXPECT_EQ(engine->PredictExamples(batch, &scratch), want);
        }
        // Breathe between iterations so swaps (unique lock) don't starve
        // behind back-to-back shared holds.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int gen = 2; gen <= 8; ++gen) {
    char name[32];
    std::snprintf(name, sizeof(name), "gen_%06d", gen);
    copy_gen(name, sw.store_root +
                       (gen % 2 == 0 ? "/gen_000002" : "/gen_000001"));
    {
      std::unique_lock<std::shared_mutex> lock(reload_mu);
      ASSERT_TRUE(engine->Reload().ok());
    }
    EXPECT_EQ(engine->store_generation(), gen);
    // Let the new generation's sweeper run a few 2ms passes against live
    // traffic before the next swap displaces it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : traffic) th.join();

  ASSERT_NE(engine->entity_store(), nullptr);
  const store::ResidencyStats rs = engine->entity_store()->residency_stats();
  EXPECT_EQ(rs.budget_bytes, 16 << 10);
  // The final generation's sweeper has had time to run at the 2ms cadence.
  EXPECT_GT(rs.sweeps + rs.prefetch_issued, 0);
}

TEST(StoreEngineTest, MismatchedStoreSchemaIsRejectedAtCreate) {
  const StoreWorld& sw = GetStoreWorld();
  // A store whose "static" table has the wrong width must be rejected up
  // front (exported under a different ablation), not crash at gather time.
  const std::string dir = TestDir("bad_schema");
  const std::vector<float> data = RandomTable(sw.world.kb.num_entities(), 8, 5);
  store::WriteOptions options;
  ASSERT_TRUE(store::WriteStore(
                  dir, {{"static", data.data(), sw.world.kb.num_entities(), 8}},
                  options)
                  .ok());
  serve::EngineOptions eo;
  eo.data_dir = sw.data_dir;
  eo.model_path = sw.model_path;
  eo.store_dir = dir;
  auto engine = serve::InferenceEngine::Create(eo);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);

  // store_dir with checkpoint_dir is a config error, caught before any IO.
  serve::EngineOptions bad;
  bad.data_dir = sw.data_dir;
  bad.checkpoint_dir = sw.data_dir;
  bad.store_dir = dir;
  EXPECT_EQ(serve::InferenceEngine::Create(bad).status().code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bootleg
