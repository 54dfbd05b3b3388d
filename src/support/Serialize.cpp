//===- support/Serialize.cpp ----------------------------------*- C++ -*-===//

#include "support/Serialize.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace alic;

void ByteWriter::writeU16(uint16_t Value) {
  Buffer.push_back(uint8_t(Value & 0xff));
  Buffer.push_back(uint8_t(Value >> 8));
}

void ByteWriter::writeU32(uint32_t Value) {
  for (int Shift = 0; Shift != 32; Shift += 8)
    Buffer.push_back(uint8_t((Value >> Shift) & 0xff));
}

void ByteWriter::writeU64(uint64_t Value) {
  for (int Shift = 0; Shift != 64; Shift += 8)
    Buffer.push_back(uint8_t((Value >> Shift) & 0xff));
}

void ByteWriter::writeDouble(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "IEEE-754 double expected");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeU16s(const std::vector<uint16_t> &Values) {
  writeU64(Values.size());
  for (uint16_t V : Values)
    writeU16(V);
}

void ByteWriter::writeDoubles(const std::vector<double> &Values) {
  writeU64(Values.size());
  for (double V : Values)
    writeDouble(V);
}

Status alic::writeAndSync(int Fd, const void *Data, size_t Size,
                          const std::string &Path, const char *WriteSite,
                          const char *SyncSite) {
  FailOutcome F = WriteSite ? ALIC_FAILPOINT(WriteSite) : FailOutcome();
  if (F.Fire)
    Size = F.Mode == FailMode::Torn ? std::min(Size, F.TornBytes) : 0;
  const char *Bytes = static_cast<const char *>(Data);
  for (size_t Done = 0; Done < Size;) {
    ssize_t N = ::write(Fd, Bytes + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Status::failure("write " + Path, N < 0 ? errno : EIO);
    Done += size_t(N);
  }
  if (F.Fire)
    return Status::failure("write " + Path + " (injected)", F.Errno);
  F = SyncSite ? ALIC_FAILPOINT(SyncSite) : FailOutcome();
  if (F.Fire)
    return Status::failure("fsync " + Path + " (injected)", F.Errno);
  if (::fsync(Fd) != 0)
    return Status::failure("fsync " + Path, errno);
  return Status::success();
}

bool alic::writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  bool Wrote = std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  return std::fclose(File) == 0 && Wrote;
}

// Doc comment in Serialize.h: the shared directory-fsync discipline.
Status alic::syncParentDir(const std::string &Path) {
  FailOutcome F = ALIC_FAILPOINT("atomicfile.dirsync");
  if (F.Fire)
    return Status::failure("fsync dir of " + Path + " (injected)", F.Errno);
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY);
  if (Fd < 0)
    return Status::failure("open dir " + Dir, errno);
  int Rc = ::fsync(Fd);
  int SavedErrno = errno;
  ::close(Fd);
  if (Rc != 0 && SavedErrno != EINVAL)
    return Status::failure("fsync dir " + Dir, SavedErrno);
  return Status::success();
}

Status ByteWriter::writeFileDurable(const std::string &Path) const {
  std::string TmpPath = Path + ".tmp";
  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Status::failure("open " + TmpPath, errno);

  Status St = writeAndSync(Fd, Buffer.data(), Buffer.size(), TmpPath,
                           "atomicfile.write", "atomicfile.sync");
  if (::close(Fd) != 0 && St.ok())
    St = Status::failure("close " + TmpPath, errno);
  if (!St.ok()) {
    ::unlink(TmpPath.c_str());
    return St;
  }

  FailOutcome F = ALIC_FAILPOINT("atomicfile.rename");
  if (F.Fire) {
    ::unlink(TmpPath.c_str());
    return Status::failure("rename to " + Path + " (injected)", F.Errno);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    Status Failed = Status::failure("rename to " + Path, errno);
    ::unlink(TmpPath.c_str());
    return Failed;
  }
  return syncParentDir(Path);
}

Status alic::readFileBytes(const std::string &Path, std::string &Out) {
  Out.clear();
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return Status::failure("open " + Path, errno);
  char Chunk[1 << 16];
  size_t Got;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Out.append(Chunk, Got);
  bool Ok = std::ferror(File) == 0;
  std::fclose(File);
  return Ok ? Status::success() : Status::failure("read " + Path, EIO);
}

bool ByteReader::fromFile(const std::string &Path, ByteReader &Out) {
  std::string Bytes;
  if (!readFileBytes(Path, Bytes).ok())
    return false;
  Out = ByteReader(std::vector<uint8_t>(Bytes.begin(), Bytes.end()));
  return true;
}

bool ByteReader::take(size_t Count, const uint8_t *&Out) {
  if (Failed || Count > Buffer.size() - Pos || Pos > Buffer.size()) {
    Failed = true;
    return false;
  }
  Out = Buffer.data() + Pos;
  Pos += Count;
  return true;
}

bool ByteReader::readU16(uint16_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(2, Bytes))
    return false;
  Value = uint16_t(Bytes[0] | (uint16_t(Bytes[1]) << 8));
  return true;
}

bool ByteReader::readU32(uint32_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(4, Bytes))
    return false;
  for (int I = 0; I != 4; ++I)
    Value |= uint32_t(Bytes[I]) << (8 * I);
  return true;
}

bool ByteReader::readU64(uint64_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(8, Bytes))
    return false;
  for (int I = 0; I != 8; ++I)
    Value |= uint64_t(Bytes[I]) << (8 * I);
  return true;
}

bool ByteReader::readDouble(double &Value) {
  Value = 0.0;
  uint64_t Bits;
  if (!readU64(Bits))
    return false;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return true;
}

bool ByteReader::readU16s(std::vector<uint16_t> &Values) {
  Values.clear();
  uint64_t Count;
  if (!readU64(Count) || Count > Buffer.size()) { // each element needs >= 2B
    Failed = true;
    return false;
  }
  Values.resize(size_t(Count));
  for (uint16_t &V : Values)
    if (!readU16(V))
      return false;
  return true;
}

bool ByteReader::readDoubles(std::vector<double> &Values) {
  Values.clear();
  uint64_t Count;
  if (!readU64(Count) || Count > Buffer.size()) { // each element needs 8B
    Failed = true;
    return false;
  }
  Values.resize(size_t(Count));
  for (double &V : Values)
    if (!readDouble(V))
      return false;
  return true;
}
