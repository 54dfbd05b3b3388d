//===- support/Serialize.h - Binary blob reader/writer --------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's file-I/O steps (directory fsync, write-then-fsync, whole
/// file reads and writes, atomic durable replace) and a tiny
/// explicit-layout binary serializer used for on-disk caches (the
/// campaign orchestrator memoizes buildDataset blobs with it).  Every
/// scalar is written little-endian byte by byte and doubles travel as raw
/// IEEE-754 bits, so a round trip reproduces values bit-for-bit on any
/// host this project targets.  Readers are fully bounds-checked: a
/// truncated or corrupted blob flips a sticky failure flag instead of
/// reading out of bounds, and callers discard the cache entry.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_SERIALIZE_H
#define ALIC_SUPPORT_SERIALIZE_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alic {

/// fsync of the directory containing \p Path, making a completed create,
/// rename, or unlink inside it durable — the same discipline
/// ByteWriter::writeFileDurable applies after its rename.  Exposed so
/// other durable-file protocols (a journal's first create, the lease
/// directory's claim/steal transitions) reuse it instead of
/// re-deriving the fsync rules.  Best-effort on filesystems that reject
/// directory fsync (errno EINVAL is ignored, the POSIX escape hatch).
/// Fault-injection site: atomicfile.dirsync.
Status syncParentDir(const std::string &Path);

/// The write-then-fsync step every durable file protocol shares
/// (writeFileDurable, journal appends, lease claims): writes all \p Size
/// bytes at \p Data to \p Fd, riding out EINTR and short writes, then
/// fsyncs.  When named, the \p WriteSite failpoint is checked before the
/// write (torn mode lets the first TornBytes through, then fails, as
/// ENOSPC mid-write would) and \p SyncSite before the fsync.  \p Path
/// names the file in failure messages.
Status writeAndSync(int Fd, const void *Data, size_t Size,
                    const std::string &Path, const char *WriteSite = nullptr,
                    const char *SyncSite = nullptr);

/// Reads the whole file at \p Path into \p Out.
Status readFileBytes(const std::string &Path, std::string &Out);

/// Writes \p Text to \p Path, replacing it; false when any step fails,
/// including the flush at close that a full disk can fail.  No fsync: for
/// reports a rerun regenerates.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// Appends scalars and vectors to a growing byte buffer.
class ByteWriter {
public:
  void writeU16(uint16_t Value);
  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  /// Raw IEEE-754 bits; round-trips exactly.
  void writeDouble(double Value);
  /// Raw bytes, verbatim, no length prefix — for text artifacts (e.g.
  /// the merged campaign ledger) that want writeFileDurable's atomic
  /// durable publish without the binary framing.
  void writeRaw(const std::string &Value) {
    Buffer.insert(Buffer.end(), Value.begin(), Value.end());
  }
  void writeU16s(const std::vector<uint16_t> &Values);
  void writeDoubles(const std::vector<double> &Values);

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  size_t size() const { return Buffer.size(); }

  /// Writes the buffer to \p Path atomically *and durably*: the bytes go
  /// to a temporary file, the temporary is fsync'd **before** the rename
  /// (so the rename can never publish a name whose data is still only in
  /// the page cache — a crash after rename-without-sync leaves a
  /// truncated-but-named blob), and the containing directory is fsync'd
  /// after (so the rename itself survives a crash).  Concurrent readers
  /// never observe a half-written blob.  On any failure the temporary is
  /// removed and \p Path keeps its previous content (or absence); the
  /// returned Status carries the failing step and errno.
  ///
  /// Fault-injection sites: atomicfile.write (torn/error on the data
  /// write), atomicfile.sync (temp-file fsync), atomicfile.rename, and
  /// atomicfile.dirsync — all four accept mode:crash for the
  /// kill-at-every-sync-point chaos tests.
  Status writeFileDurable(const std::string &Path) const;

private:
  std::vector<uint8_t> Buffer;
};

/// Consumes a byte buffer written by ByteWriter.  All reads are
/// bounds-checked; the first out-of-range read sets the sticky failure
/// flag, zeroes the output, and every later read fails too, so callers
/// can validate once at the end with ok().
class ByteReader {
public:
  explicit ByteReader(std::vector<uint8_t> Bytes) : Buffer(std::move(Bytes)) {}

  /// Loads \p Path into a reader; false when the file cannot be read.
  static bool fromFile(const std::string &Path, ByteReader &Out);

  bool readU16(uint16_t &Value);
  bool readU32(uint32_t &Value);
  bool readU64(uint64_t &Value);
  bool readDouble(double &Value);
  bool readU16s(std::vector<uint16_t> &Values);
  bool readDoubles(std::vector<double> &Values);

  /// True while every read so far stayed in bounds.
  bool ok() const { return !Failed; }

  /// True when the cursor consumed the whole buffer.
  bool atEnd() const { return Pos == Buffer.size(); }

  /// Bytes left to read.  Callers deserializing containers-of-containers
  /// must bound their outer element counts against this before resizing,
  /// so a corrupt length prefix cannot trigger a giant allocation.
  size_t remaining() const { return Buffer.size() - Pos; }

private:
  bool take(size_t Count, const uint8_t *&Out);

  std::vector<uint8_t> Buffer;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace alic

#endif // ALIC_SUPPORT_SERIALIZE_H
