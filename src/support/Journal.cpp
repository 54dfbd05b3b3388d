//===- support/Journal.cpp ------------------------------------*- C++ -*-===//

#include "support/Journal.h"

#include "support/Backoff.h"
#include "support/Serialize.h"

#include <cerrno>
#include <chrono>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace alic;

namespace {

/// Attempts per append.  The 1 ms envelope doubling to 4 ms rides out a
/// transient EINTR/EIO blip, yet a truly full disk fails a 275-cell
/// campaign's appends in about a second.
constexpr int AppendAttempts = 4;

/// Seed of the retry Backoff stream (it sets sleep lengths, not results).
constexpr uint64_t RetrySeed = 0x1ed6e4ull;

/// Opens \p Path for appending; a missing file is created and its
/// directory fsync'd (best-effort, like every caller of syncParentDir).
int openForAppend(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (Fd >= 0 || errno != ENOENT)
    return Fd;
  Fd = ::open(Path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (Fd >= 0)
    (void)syncParentDir(Path);
  return Fd;
}

Status tryAppend(const std::string &Path, const std::string &Records,
                 const char *AppendSite, const char *SyncSite) {
  int Fd = openForAppend(Path);
  if (Fd < 0)
    return Status::failure("open " + Path, errno);
  // A file that does not end in '\n' has a torn tail: seal it first.
  struct stat Info;
  char Last = '\n';
  bool Torn = ::fstat(Fd, &Info) == 0 && Info.st_size > 0 &&
              ::pread(Fd, &Last, 1, Info.st_size - 1) == 1 && Last != '\n';
  const std::string Bytes = Torn ? "\n" + Records : Records;
  Status St = writeAndSync(Fd, Bytes.data(), Bytes.size(), Path, AppendSite,
                           SyncSite);
  if (::close(Fd) != 0 && St.ok())
    St = Status::failure("close " + Path, errno);
  return St;
}

} // namespace

Status alic::appendJournal(const std::string &Path, const std::string &Records,
                           const char *AppendSite, const char *SyncSite) {
  Backoff Retry(RetrySeed, /*BaseMs=*/1, /*CapMs=*/4);
  Status St;
  for (int Attempt = 0; Attempt != AppendAttempts; ++Attempt) {
    if (Attempt)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Retry.delayMs(uint64_t(Attempt - 1))));
    St = tryAppend(Path, Records, AppendSite, SyncSite);
    if (St.ok())
      break;
  }
  return St;
}

Status alic::readJournal(const std::string &Path,
                         std::vector<std::string> &Records, bool *TornTail) {
  Records.clear();
  if (TornTail)
    *TornTail = false;
  std::string Content;
  Status St = readFileBytes(Path, Content);
  if (!St.ok())
    return St;
  size_t Pos = 0;
  for (size_t Eol; (Eol = Content.find('\n', Pos)) != std::string::npos;
       Pos = Eol + 1)
    if (Eol != Pos)
      Records.emplace_back(Content, Pos, Eol - Pos);
  if (TornTail)
    *TornTail = Pos != Content.size();
  return Status::success();
}
