//===- support/Journal.h - Durable append-only record file ----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A journal is an append-only file of newline-terminated records, and
/// appendJournal() is the one place the project appends to a file and
/// fsyncs it.  The campaign ledger (one JSON line per cell) and serve
/// session files (a header line, then one line per observe) are journals.
///
/// **Crash-safety argument.**
///  - A record counts only once its '\n' is in the file: readJournal()
///    drops an unterminated tail.
///  - An append fsyncs before it reports success, and creating the file
///    fsyncs its directory, so an acknowledged record survives a crash
///    or power loss.
///  - A crash or a failed attempt can leave a torn tail.  Before writing,
///    an append reads the file's last byte and, if it is not '\n', writes
///    a '\n' first: the remnant becomes one complete line that the
///    caller's parser rejects, and the new record never glues onto it.
///  - A failed attempt is retried, and the retry re-checks the tail.
///    When the bytes landed but the fsync failed, the retry writes them
///    again; callers treat a byte-identical repeat as a no-op.
///
/// No descriptor is held between appends, so thousands of journals cost
/// no file descriptors.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_JOURNAL_H
#define ALIC_SUPPORT_JOURNAL_H

#include "support/Error.h"

#include <string>
#include <vector>

namespace alic {

/// Appends \p Records — one or more records, each ending in '\n' — to the
/// journal at \p Path with one write and one fsync, creating the file if
/// needed.  A failed attempt is retried up to three times on a 1-4 ms
/// jittered backoff; the last attempt's Status is returned.
/// Fault-injection sites: \p AppendSite before each write (error, torn or
/// crash) and, when not null, \p SyncSite before each fsync.
Status appendJournal(const std::string &Path, const std::string &Records,
                     const char *AppendSite, const char *SyncSite = nullptr);

/// Reads every complete, non-empty record of the journal at \p Path into
/// \p Records, without its '\n'.  An unterminated tail is dropped, and
/// \p TornTail (when given) says whether there was one.  Fails, leaving
/// \p Records empty, when the file cannot be read.
Status readJournal(const std::string &Path, std::vector<std::string> &Records,
                   bool *TornTail = nullptr);

} // namespace alic

#endif // ALIC_SUPPORT_JOURNAL_H
