//===- serve/Wire.h - NDJSON request/reply protocol -----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve wire protocol, factored away from any transport: one JSON
/// object in, one JSON object out, both on a single line.  `alic_serve`
/// pumps socket lines through handleRequestLine(); tests and tools can
/// drive the exact same dispatch with plain strings.  The full field
/// reference lives in docs/SERVE_PROTOCOL.md.
///
/// Requests carry an `op` of open / suggest / observe / info / eval /
/// close / ping / shutdown.  Every reply carries `ok`; failures are
/// `{"ok":false,"error":"..."}` and never change session state, so a
/// client may blindly retry.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SERVE_WIRE_H
#define ALIC_SERVE_WIRE_H

#include <string>

namespace alic {

class ServeEngine;

/// Dispatches one request line against \p Engine and fills \p Reply with
/// the response object (no trailing newline).  Malformed JSON, unknown
/// ops, and engine-level failures all produce an `ok:false` reply —
/// the function itself never fails.  Returns true only for a `shutdown`
/// request, signalling the transport loop to exit after sending the
/// reply.  Thread-safe: dispatch only calls the engine's thread-safe
/// surface.
bool handleRequestLine(ServeEngine &Engine, const std::string &Line,
                       std::string &Reply);

/// The `{"ok":false,"error":...}` reply object carrying \p Message (no
/// trailing newline).  Transports use it for failures they detect before
/// dispatch, such as an oversized request.
std::string errorReply(const std::string &Message);

} // namespace alic

#endif // ALIC_SERVE_WIRE_H
