#ifndef BOOTLEG_UTIL_IO_H_
#define BOOTLEG_UTIL_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace bootleg::util {

/// Magic word closing every v1 snapshot; followed by the payload byte count.
inline constexpr uint32_t kFooterMagic = 0xB007F007;

/// Test-only fault injection for the snapshot write path, in the style of
/// RocksDB's FaultInjectionTestEnv. While armed, every BinaryWriter byte
/// consults the plan: writes can be truncated-and-failed after a byte budget
/// (a torn file, as a crash mid-write would leave), a single byte can be
/// flipped (simulated media corruption that checksums must catch), and
/// AtomicFileWriter::Commit can be failed before the rename (a crash after
/// the temp file is complete but before it becomes canonical).
///
/// An injected failure latches "crash simulation": cleanup that a real crash
/// would skip (temp-file removal) is skipped too, so recovery code is
/// exercised against the artifacts a genuine kill leaves behind. Not
/// thread-safe; arm only in single-threaded test setup.
class FaultInjector {
 public:
  struct Plan {
    /// Fail every write once this many bytes have been written (across all
    /// writers) since Arm; the failing write lands only the bytes within
    /// budget, leaving a torn file. -1 disables.
    int64_t fail_after_bytes = -1;
    /// XOR `flip_mask` into the byte at this global offset. -1 disables.
    int64_t flip_byte_at = -1;
    uint8_t flip_mask = 0x01;
    /// Fail AtomicFileWriter::Commit before the rename, leaving the
    /// complete temp file on disk but the canonical path untouched.
    bool fail_commit = false;
  };

  static void Arm(const Plan& plan);
  static void Disarm();
  static bool armed();
  /// True once an injected failure has fired; cleanup paths leave files
  /// in place (crash simulation) while this holds. Cleared by Arm/Disarm.
  static bool crash_simulated();

  /// Called by BinaryWriter for every write while armed. Applies byte flips
  /// to `data` in place, truncates the write to `*allowed` bytes, and
  /// returns false when the write must then report an injected IOError.
  static bool InterceptWrite(char* data, size_t n, size_t* allowed);
  /// Called by AtomicFileWriter::Commit; false means "crash before rename".
  static bool InterceptCommit();
};

/// Binary writer for model checkpoints and KB snapshots. Little-endian,
/// length-prefixed strings and vectors. All methods are no-ops after the
/// first failure; call status() or Finish() once at the end.
///
/// v1 snapshot formats guard their payload with per-section CRC32 checksums
/// and a footer: BeginSection() starts a checksum scope, EndSection() writes
/// the accumulated CRC, and WriteFooter() closes the file with kFooterMagic
/// plus the total payload length so readers can reject truncation and
/// trailing garbage.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  /// The same length-prefixed layout, from `n` floats at `data`.
  void WriteFloatVector(const float* data, uint64_t n);
  void WriteI64Vector(const std::vector<int64_t>& v);

  /// Unprefixed raw bytes (section checksums and fault injection apply).
  /// Used by formats that track their own offsets, e.g. the mmap-read
  /// embedding-store shards whose payload layout is fixed by the header.
  void WriteRaw(const void* data, size_t n);

  /// Starts accumulating a section checksum over subsequent writes.
  void BeginSection();
  /// Writes the section's CRC32 (the CRC word itself is not checksummed).
  void EndSection();
  /// Writes the end-of-file footer: kFooterMagic + payload byte count.
  void WriteFooter();

  uint64_t bytes_written() const { return bytes_; }

  const Status& status() const { return status_; }

  /// Flushes, closes, and returns the accumulated status.
  Status Finish();

 private:
  void WriteBytes(const void* data, size_t n);

  std::ofstream out_;
  Status status_;
  uint64_t bytes_ = 0;
  uint32_t section_crc_ = 0;
  bool in_section_ = false;
};

/// Binary reader mirroring BinaryWriter. The file size is stat'd once at
/// open and every length prefix is bounded by the bytes actually remaining,
/// so corrupt input can never trigger a multi-GB allocation: the worst a bad
/// prefix can cost is one allocation no larger than the file itself.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<int64_t> ReadI64Vector();
  /// Reads a float vector straight into `dst`, which holds `n` floats. If
  /// the stored length is not `n`, nothing is read past the length prefix,
  /// `dst` is untouched and false is returned with status() still OK (a
  /// mismatch for the caller to name); false with status() set means the
  /// file is corrupt or truncated.
  bool ReadFloatVectorInto(float* dst, uint64_t n);

  /// Starts accumulating a checksum over subsequent reads.
  void BeginSection();
  /// Reads the stored section CRC and fails with Corruption on mismatch.
  void EndSection();
  /// Reads the footer and fails with Corruption unless the stored payload
  /// length matches the bytes consumed and no trailing garbage follows.
  void VerifyFooter();

  /// Bytes between the read cursor and end-of-file.
  uint64_t remaining() const { return file_size_ - consumed_; }
  uint64_t consumed() const { return consumed_; }

  const Status& status() const { return status_; }

 private:
  void ReadBytes(void* data, size_t n);
  /// Validates a length prefix of `count` elements of `elem_size` bytes
  /// against remaining(); sets Corruption and returns false if oversized.
  bool BoundLength(uint64_t count, uint64_t elem_size);

  std::ifstream in_;
  Status status_;
  uint64_t file_size_ = 0;
  uint64_t consumed_ = 0;
  uint32_t section_crc_ = 0;
  bool in_section_ = false;
};

/// Durable replace-on-commit file writer: stream to `temp_path()`, then
/// Commit() fsyncs the temp file, renames it over the final path, and fsyncs
/// the directory. The canonical path therefore always holds either the old
/// complete file or the new complete file — a crash at any point leaves at
/// worst a torn `.tmp` sibling, which recovery scans ignore. Destroying the
/// writer without a successful Commit removes the temp file (unless a fault
/// injection "crash" is being simulated).
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  const std::string& temp_path() const { return temp_path_; }

  /// fsync(temp) → rename(temp, final) → fsync(dir).
  Status Commit();

 private:
  std::string path_;
  std::string temp_path_;
  bool committed_ = false;
};

/// Writes `contents` to `path`, replacing any existing file. The replace is
/// atomic (temp file + rename), so readers never observe a partial file.
Status WriteTextFile(const std::string& path, const std::string& contents);

/// Reads the entire file at `path`.
StatusOr<std::string> ReadTextFile(const std::string& path);

}  // namespace bootleg::util

#endif  // BOOTLEG_UTIL_IO_H_
