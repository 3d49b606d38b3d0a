#include "util/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "util/crc32.h"

namespace bootleg::util {

// --- FaultInjector -----------------------------------------------------------

namespace {

struct FaultState {
  bool armed = false;
  bool crashed = false;
  int64_t written = 0;  // bytes written since Arm, across all writers
  FaultInjector::Plan plan;
};

FaultState& faults() {
  static FaultState state;
  return state;
}

}  // namespace

void FaultInjector::Arm(const Plan& plan) {
  faults() = FaultState{/*armed=*/true, /*crashed=*/false, /*written=*/0, plan};
}

void FaultInjector::Disarm() { faults() = FaultState{}; }

bool FaultInjector::armed() { return faults().armed; }

bool FaultInjector::crash_simulated() { return faults().crashed; }

bool FaultInjector::InterceptWrite(char* data, size_t n, size_t* allowed) {
  FaultState& f = faults();
  *allowed = n;
  if (!f.armed) return true;
  const int64_t offset = f.written;
  f.written += static_cast<int64_t>(n);
  if (f.plan.flip_byte_at >= offset &&
      f.plan.flip_byte_at < offset + static_cast<int64_t>(n)) {
    data[f.plan.flip_byte_at - offset] ^= static_cast<char>(f.plan.flip_mask);
  }
  if (f.plan.fail_after_bytes >= 0 &&
      offset + static_cast<int64_t>(n) > f.plan.fail_after_bytes) {
    *allowed = static_cast<size_t>(
        std::max<int64_t>(0, f.plan.fail_after_bytes - offset));
    f.crashed = true;
    return false;
  }
  return true;
}

bool FaultInjector::InterceptCommit() {
  FaultState& f = faults();
  if (f.armed && f.plan.fail_commit) {
    f.crashed = true;
    return false;
  }
  return true;
}

// --- BinaryWriter ------------------------------------------------------------

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_.is_open()) {
    status_ = Status::IOError("cannot open for write: " + path);
  }
}

void BinaryWriter::WriteBytes(const void* data, size_t n) {
  if (!status_.ok()) return;
  // The section checksum covers the bytes we intend to write; an injected
  // flip below then corrupts the file relative to its checksum, exactly as
  // on-media corruption would.
  if (in_section_) section_crc_ = Crc32(data, n, section_crc_);
  if (FaultInjector::armed()) {
    std::string buf(static_cast<const char*>(data), n);
    size_t allowed = n;
    const bool ok = FaultInjector::InterceptWrite(buf.data(), n, &allowed);
    out_.write(buf.data(), static_cast<std::streamsize>(allowed));
    bytes_ += allowed;
    if (!ok) {
      status_ = Status::IOError("injected write fault");
      return;
    }
  } else {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    bytes_ += n;
  }
  if (!out_.good()) status_ = Status::IOError("write failure");
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteRaw(const void* data, size_t n) {
  WriteBytes(data, n);
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteFloatVector(v.data(), v.size());
}

void BinaryWriter::WriteFloatVector(const float* data, uint64_t n) {
  WriteU64(n);
  WriteBytes(data, n * sizeof(float));
}

void BinaryWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

void BinaryWriter::BeginSection() {
  section_crc_ = 0;
  in_section_ = true;
}

void BinaryWriter::EndSection() {
  in_section_ = false;
  WriteU32(section_crc_);
}

void BinaryWriter::WriteFooter() {
  in_section_ = false;
  const uint64_t payload = bytes_;
  WriteU32(kFooterMagic);
  WriteU64(payload);
}

Status BinaryWriter::Finish() {
  if (status_.ok()) {
    out_.flush();
    if (!out_.good()) status_ = Status::IOError("flush failure");
  }
  out_.close();
  return status_;
}

// --- BinaryReader ------------------------------------------------------------

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    status_ = Status::IOError("cannot open for read: " + path);
    return;
  }
  // Stat once at open: every length prefix is bounded by remaining(), so a
  // corrupt prefix can never drive an allocation past the file size.
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (size < 0 || !in_.good()) {
    status_ = Status::IOError("cannot stat: " + path);
    return;
  }
  file_size_ = static_cast<uint64_t>(size);
}

void BinaryReader::ReadBytes(void* data, size_t n) {
  if (!status_.ok()) return;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  const auto got = static_cast<uint64_t>(in_.gcount());
  consumed_ += got;
  if (got != n) {
    status_ = Status::Corruption("short read");
    return;
  }
  if (in_section_) section_crc_ = Crc32(data, n, section_crc_);
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}
uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}
int64_t BinaryReader::ReadI64() {
  int64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}
float BinaryReader::ReadF32() {
  float v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}
double BinaryReader::ReadF64() {
  double v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

bool BinaryReader::BoundLength(uint64_t count, uint64_t elem_size) {
  if (!status_.ok()) return false;
  if (count > remaining() / elem_size) {
    status_ = Status::Corruption("length prefix exceeds remaining file size");
    return false;
  }
  return true;
}

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  if (!BoundLength(n, 1)) return {};
  std::string s(n, '\0');
  ReadBytes(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::ReadFloatVector() {
  const uint64_t n = ReadU64();
  if (!BoundLength(n, sizeof(float))) return {};
  std::vector<float> v(n);
  ReadBytes(v.data(), n * sizeof(float));
  return v;
}

bool BinaryReader::ReadFloatVectorInto(float* dst, uint64_t n) {
  const uint64_t stored = ReadU64();
  if (!BoundLength(stored, sizeof(float)) || stored != n) return false;
  ReadBytes(dst, n * sizeof(float));
  return status_.ok();
}

std::vector<int64_t> BinaryReader::ReadI64Vector() {
  const uint64_t n = ReadU64();
  if (!BoundLength(n, sizeof(int64_t))) return {};
  std::vector<int64_t> v(n);
  ReadBytes(v.data(), n * sizeof(int64_t));
  return v;
}

void BinaryReader::BeginSection() {
  section_crc_ = 0;
  in_section_ = true;
}

void BinaryReader::EndSection() {
  in_section_ = false;
  const uint32_t computed = section_crc_;
  const uint32_t stored = ReadU32();
  if (status_.ok() && stored != computed) {
    status_ = Status::Corruption("section checksum mismatch");
  }
}

void BinaryReader::VerifyFooter() {
  in_section_ = false;
  const uint64_t payload = consumed_;
  if (ReadU32() != kFooterMagic) {
    if (status_.ok()) status_ = Status::Corruption("bad or missing footer");
    return;
  }
  const uint64_t stored = ReadU64();
  if (!status_.ok()) return;
  if (stored != payload) {
    status_ = Status::Corruption("footer length mismatch");
    return;
  }
  if (remaining() != 0) {
    status_ = Status::Corruption("trailing garbage after footer");
  }
}

// --- AtomicFileWriter --------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), temp_path_(path_ + ".tmp") {}

AtomicFileWriter::~AtomicFileWriter() {
  // A simulated crash must leave its torn temp file behind, exactly as a
  // real kill would, so recovery scans get exercised against it.
  if (committed_ || FaultInjector::crash_simulated()) return;
  std::error_code ec;
  std::filesystem::remove(temp_path_, ec);
}

Status AtomicFileWriter::Commit() {
  if (!FaultInjector::InterceptCommit()) {
    return Status::IOError("injected commit fault: " + path_);
  }
  // fsync the temp file so the data precedes the rename in durability order.
  const int fd = ::open(temp_path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for fsync: " + temp_path_);
  const int sync_rc = ::fsync(fd);
  ::close(fd);
  if (sync_rc != 0) return Status::IOError("fsync failed: " + temp_path_);

  std::error_code ec;
  std::filesystem::rename(temp_path_, path_, ec);
  if (ec) {
    return Status::IOError("rename failed: " + temp_path_ + " -> " + path_ +
                           ": " + ec.message());
  }
  committed_ = true;

  // fsync the directory so the rename itself survives a crash.
  std::string dir = std::filesystem::path(path_).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; the rename is already visible
    ::close(dfd);
  }
  return Status::OK();
}

// --- Text files --------------------------------------------------------------

Status WriteTextFile(const std::string& path, const std::string& contents) {
  AtomicFileWriter atomic(path);
  {
    std::ofstream out(atomic.temp_path(), std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError("cannot open for write: " + atomic.temp_path());
    }
    out << contents;
    out.flush();
    if (!out.good()) return Status::IOError("write failure: " + path);
  }
  return atomic.Commit();
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace bootleg::util
