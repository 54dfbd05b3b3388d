//===- support/FailPoint.cpp ----------------------------------*- C++ -*-===//

#include "support/FailPoint.h"

#include "support/Env.h"
#include "support/Format.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include <unistd.h>

using namespace alic;

std::atomic<uint32_t> failpoints::ArmedCount{0};

namespace {

struct PointState {
  bool Armed = false;
  FailSpec Spec;
  uint64_t Hits = 0;  ///< evaluations since the last global reset
  uint64_t Fires = 0; ///< evaluations that injected an outcome
};

struct Registry {
  std::mutex M;
  std::map<std::string, PointState> Points;
  bool EnvParsed = false;
};

/// Function-local static: safe to touch from static initializers of other
/// translation units and from the first evaluate() of any thread.
Registry &registry() {
  static Registry R;
  return R;
}

int modeErrno(const std::string &Token, bool &Ok) {
  Ok = true;
  if (Token == "enospc")
    return ENOSPC;
  if (Token == "eio")
    return EIO;
  if (Token == "eintr")
    return EINTR;
  if (Token == "eagain")
    return EAGAIN;
  if (Token == "emfile")
    return EMFILE;
  Ok = false;
  return 0;
}

/// Parses ALIC_FAILPOINTS exactly once per process; called under the
/// registry mutex.  A malformed value aborts loudly — a chaos harness
/// silently running *without* its faults armed would "pass" everything.
void parseEnvLocked(Registry &R) {
  if (R.EnvParsed)
    return;
  R.EnvParsed = true;
  std::string Env = getEnvString("ALIC_FAILPOINTS", "");
  if (Env.empty())
    return;
  // Re-enter through the public helper (it takes the mutex itself), so
  // release it around the call via a local copy of the work.
  size_t Pos = 0;
  while (Pos <= Env.size()) {
    size_t Semi = Env.find(';', Pos);
    if (Semi == std::string::npos)
      Semi = Env.size();
    std::string Clause = Env.substr(Pos, Semi - Pos);
    Pos = Semi + 1;
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    FailSpec Spec;
    if (Eq == std::string::npos || Eq == 0 ||
        !parseFailSpec(Clause.substr(Eq + 1), Spec)) {
      std::fprintf(stderr, "alic: malformed ALIC_FAILPOINTS clause '%s'\n",
                   Clause.c_str());
      std::abort();
    }
    std::string Name = Clause.substr(0, Eq);
    PointState &P = R.Points[Name];
    P.Armed = true;
    P.Spec = Spec;
    P.Hits = 0;
    P.Fires = 0;
    failpoints::ArmedCount.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Parses ALIC_FAILPOINTS during static initialization, so ArmedCount is
/// already nonzero by the time any site's disabled fast path runs (the
/// fast path never re-checks the environment).
struct EnvArmer {
  EnvArmer() {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    parseEnvLocked(R);
  }
} TheEnvArmer;

} // namespace

bool alic::parseFailSpec(const std::string &Text, FailSpec &Spec) {
  Spec = FailSpec();
  bool SawMode = false;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Part = Text.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Part.empty())
      continue;
    size_t Colon = Part.find(':');
    std::string Key = Part.substr(0, Colon == std::string::npos ? Part.size()
                                                                : Colon);
    std::string Value =
        Colon == std::string::npos ? std::string() : Part.substr(Colon + 1);
    if (Key == "nth") {
      if (!parseDecimal(Value, UINT64_MAX, Spec.Nth) || Spec.Nth == 0)
        return false;
    } else if (Key == "count") {
      if (!parseDecimal(Value, UINT64_MAX, Spec.Count) || Spec.Count == 0)
        return false;
    } else if (Key == "mode") {
      SawMode = true;
      if (Value == "crash") {
        Spec.Mode = FailMode::Crash;
      } else if (Value.rfind("torn:", 0) == 0) {
        uint64_t Bytes;
        if (!parseDecimal(Value.substr(5), UINT64_MAX, Bytes))
          return false;
        Spec.Mode = FailMode::Torn;
        Spec.TornBytes = size_t(Bytes);
        Spec.Errno = ENOSPC; // a torn write is a full disk unless overridden
      } else if (Value.rfind("errno:", 0) == 0) {
        uint64_t Err;
        if (!parseDecimal(Value.substr(6), UINT64_MAX, Err) || Err == 0)
          return false;
        Spec.Mode = FailMode::Error;
        Spec.Errno = int(Err);
      } else {
        bool Ok;
        int Err = modeErrno(Value, Ok);
        if (!Ok)
          return false;
        Spec.Mode = FailMode::Error;
        Spec.Errno = Err;
      }
    } else if (Key == "exit") {
      uint64_t Code;
      if (!parseDecimal(Value, UINT64_MAX, Code) || Code > 255)
        return false;
      Spec.ExitCode = int(Code);
    } else {
      return false;
    }
  }
  return SawMode;
}

int alic::armFailPointsFromString(const std::string &Text) {
  // Validate every clause before arming any.
  std::vector<std::pair<std::string, FailSpec>> Parsed;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Semi = Text.find(';', Pos);
    if (Semi == std::string::npos)
      Semi = Text.size();
    std::string Clause = Text.substr(Pos, Semi - Pos);
    Pos = Semi + 1;
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    FailSpec Spec;
    if (Eq == std::string::npos || Eq == 0 ||
        !parseFailSpec(Clause.substr(Eq + 1), Spec))
      return -1;
    Parsed.emplace_back(Clause.substr(0, Eq), Spec);
  }
  for (const auto &[Name, Spec] : Parsed)
    armFailPoint(Name, Spec);
  return int(Parsed.size());
}

void alic::armFailPoint(const std::string &Name, const FailSpec &Spec) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  parseEnvLocked(R);
  PointState &P = R.Points[Name];
  if (!P.Armed)
    failpoints::ArmedCount.fetch_add(1, std::memory_order_relaxed);
  P.Armed = true;
  P.Spec = Spec;
  P.Hits = 0;
  P.Fires = 0;
}

void alic::disarmFailPoint(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  if (It == R.Points.end() || !It->second.Armed)
    return;
  It->second.Armed = false;
  failpoints::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
}

void alic::disarmAllFailPoints() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &[Name, P] : R.Points) {
    (void)Name;
    if (P.Armed)
      failpoints::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
    P = PointState();
  }
}

uint64_t alic::failPointHits(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  return It == R.Points.end() ? 0 : It->second.Hits;
}

uint64_t alic::failPointFires(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  return It == R.Points.end() ? 0 : It->second.Fires;
}

FailOutcome failpoints::evaluateSlow(const char *Name) {
  Registry &R = registry();
  FailSpec Spec;
  bool Fire = false;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    parseEnvLocked(R);
    auto It = R.Points.find(Name);
    if (It == R.Points.end() || !It->second.Armed)
      return FailOutcome();
    PointState &P = It->second;
    ++P.Hits;
    if (P.Hits >= P.Spec.Nth && P.Hits - P.Spec.Nth < P.Spec.Count) {
      Fire = true;
      Spec = P.Spec;
      ++P.Fires;
    }
  }
  if (!Fire)
    return FailOutcome();
  if (Spec.Mode == FailMode::Crash) {
    // The whole point: die with no unwinding, destructors, or flushing —
    // exactly what a power loss or SIGKILL at this syscall looks like.
    std::fprintf(stderr, "alic: failpoint '%s' crash\n", Name);
    ::_exit(Spec.ExitCode);
  }
  FailOutcome Out;
  Out.Fire = true;
  Out.Mode = Spec.Mode;
  Out.Errno = Spec.Errno;
  Out.TornBytes = Spec.TornBytes;
  return Out;
}
