// Corruption fuzzing for the v1 snapshot formats: every truncation point and
// a sweep of single-byte flips over saved ParameterStore and KnowledgeBase
// files must produce Status::Corruption — never a crash, CHECK-abort, or
// multi-GB allocation. Run under ASan via tools/check.sh to also rule out
// silent out-of-bounds reads.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kb/kb.h"
#include "nn/param_store.h"
#include "tensor/tensor.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/status.h"

namespace bootleg {
namespace {

namespace fs = std::filesystem;
using tensor::Tensor;

std::string FuzzDir() {
  const std::string dir =
      (fs::temp_directory_path() / "bootleg_io_fuzz_test").string();
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void BuildStore(nn::ParameterStore* store) {
  util::Rng rng(17);
  store->CreateParam("enc/w", Tensor::Randn({6, 5}, &rng));
  store->CreateParam("enc/b", Tensor::Randn({5}, &rng));
  store->CreateEmbedding("ent", 8, 4, &rng);
}

kb::KnowledgeBase BuildKb() {
  kb::KnowledgeBase kb;
  const kb::TypeId person = kb.AddType("person", kb::CoarseType::kPerson);
  const kb::TypeId city = kb.AddType("city", kb::CoarseType::kLocation);
  const kb::RelationId born_in = kb.AddRelation("born in");
  kb::Entity a;
  a.title = "ada_lovelace";
  a.aliases = {"ada", "lovelace"};
  a.types = {person};
  a.coarse_type = kb::CoarseType::kPerson;
  a.gender = 'f';
  kb.AddEntity(a);
  kb::Entity b;
  b.title = "london";
  b.aliases = {"london"};
  b.types = {city};
  b.coarse_type = kb::CoarseType::kLocation;
  kb.AddEntity(b);
  kb.AddTriple(0, born_in, 1);
  kb.AddSubclass(1, 0);
  return kb;
}

// Loading any corrupted variant must fail with kCorruption and leave the
// process alive; `reload` is a fresh load-into-target callback.
template <typename LoadFn>
void FuzzFile(const std::string& good_path, LoadFn reload) {
  const std::string bytes = ReadAll(good_path);
  ASSERT_FALSE(bytes.empty());
  const std::string path = good_path + ".fuzz";

  // The intact file must load cleanly.
  WriteAll(path, bytes);
  ASSERT_TRUE(reload(path).ok());

  // Every truncation offset, including the empty file.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteAll(path, bytes.substr(0, cut));
    const util::Status st = reload(path);
    ASSERT_FALSE(st.ok()) << "truncation at " << cut << " of " << bytes.size()
                          << " loaded successfully";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << "truncation at " << cut << ": " << st.ToString();
  }

  // Single-byte flips at every offset. CRC32 detects all single-byte errors
  // within sections; flips outside sections hit the magic, version, CRC
  // words, or footer, all of which are verified.
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    WriteAll(path, flipped);
    const util::Status st = reload(path);
    ASSERT_FALSE(st.ok()) << "byte flip at " << at << " loaded successfully";
    ASSERT_EQ(st.code(), util::StatusCode::kCorruption)
        << "byte flip at " << at << ": " << st.ToString();
  }

  // Trailing garbage after a byte-identical payload.
  WriteAll(path, bytes + std::string(16, '\x5a'));
  const util::Status st = reload(path);
  ASSERT_FALSE(st.ok());
  ASSERT_EQ(st.code(), util::StatusCode::kCorruption);
  fs::remove(path);
}

TEST(IoFuzzTest, ParameterStoreRejectsEveryTruncationAndByteFlip) {
  const std::string path = FuzzDir() + "/store.bin";
  nn::ParameterStore store;
  BuildStore(&store);
  ASSERT_TRUE(store.Save(path).ok());

  FuzzFile(path, [](const std::string& p) {
    nn::ParameterStore target;
    BuildStore(&target);
    return target.Load(p);
  });
}

TEST(IoFuzzTest, KnowledgeBaseRejectsEveryTruncationAndByteFlip) {
  const std::string path = FuzzDir() + "/kb.bin";
  ASSERT_TRUE(BuildKb().Save(path).ok());

  FuzzFile(path, [](const std::string& p) {
    kb::KnowledgeBase target;
    return target.Load(p);
  });
}

TEST(IoFuzzTest, HugeLengthPrefixIsBoundedByFileSize) {
  const std::string path = FuzzDir() + "/huge.bin";
  {
    util::BinaryWriter w(path);
    w.WriteU64(uint64_t{1} << 40);  // claims a terabyte of string bytes
    ASSERT_TRUE(w.Finish().ok());
  }
  util::BinaryReader r(path);
  const std::string s = r.ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(r.status().ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);

  util::BinaryReader rf(path);
  EXPECT_TRUE(rf.ReadFloatVector().empty());
  EXPECT_EQ(rf.status().code(), util::StatusCode::kCorruption);

  util::BinaryReader ri(path);
  EXPECT_TRUE(ri.ReadI64Vector().empty());
  EXPECT_EQ(ri.status().code(), util::StatusCode::kCorruption);
}

TEST(IoFuzzTest, UnsupportedRankIsCorruption) {
  // A checksummed, well-formed snapshot whose one parameter declares rank 5.
  // Tensors hold their shape inline, up to Shape::kMaxRank dims, and a Shape
  // CHECKs its rank: the loader must report corruption, never build one.
  nn::ParameterStore store;
  util::Rng rng(6);
  store.CreateParam("w", Tensor::Randn({2, 3}, &rng));
  const std::vector<int64_t> shape = {1, 1, 1, 2, 3};
  ASSERT_GT(shape.size(), tensor::Shape::kMaxRank);
  const std::string path = FuzzDir() + "/rank5_store.bin";
  {
    util::BinaryWriter w(path);
    w.WriteU32(0xB0071E61);  // v1 ParameterStore magic
    w.WriteU32(1);           // format version
    w.BeginSection();
    w.WriteU64(1);
    w.WriteString("w");
    w.WriteI64Vector(shape);
    w.WriteFloatVector(std::vector<float>(6, 0.5f));
    w.EndSection();
    w.BeginSection();
    w.WriteU64(0);  // no embeddings
    w.EndSection();
    w.WriteFooter();
    ASSERT_TRUE(w.Finish().ok());
  }
  EXPECT_EQ(store.Load(path).code(), util::StatusCode::kCorruption);
}

TEST(IoFuzzTest, LegacyV0FilesFailAsCorruption) {
  // The unchecksummed v0 layouts are no longer read: a well-formed v0 file
  // has no checksum to vouch for its bytes, so it must fail as corruption
  // instead of loading whatever a flipped byte made of it.
  const std::string store_path = FuzzDir() + "/legacy_store.bin";
  nn::ParameterStore store;
  util::Rng rng(5);
  store.CreateParam("w", Tensor::Randn({2, 3}, &rng));
  {
    util::BinaryWriter w(store_path);
    w.WriteU32(0xB0071E60);  // v0 ParameterStore magic
    w.WriteU64(1);           // one dense param
    w.WriteString("w");
    w.WriteI64Vector({2, 3});
    w.WriteFloatVector(std::vector<float>(6, 0.5f));
    w.WriteU64(0);  // no embeddings
    ASSERT_TRUE(w.Finish().ok());
  }
  EXPECT_EQ(store.Load(store_path).code(), util::StatusCode::kCorruption);

  const std::string kb_path = FuzzDir() + "/legacy_kb.bin";
  {
    util::BinaryWriter w(kb_path);
    w.WriteU32(0xB0071EB0);  // v0 KB magic
    w.WriteU64(0);           // types
    w.WriteU64(0);           // relations
    w.WriteU64(0);           // entities
    w.WriteU64(0);           // triples
    w.WriteU64(0);           // subclass edges
    ASSERT_TRUE(w.Finish().ok());
  }
  kb::KnowledgeBase kb;
  EXPECT_EQ(kb.Load(kb_path).code(), util::StatusCode::kCorruption);
}

}  // namespace
}  // namespace bootleg
