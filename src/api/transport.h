// api::stdio_transport: the daemon's default ingress -- request lines from
// stdin, response lines to stdout.
//
// Every ingress pumps NDJSON lines through the api::dispatcher
// (api/dispatch.h) and writes each returned response line back to the
// requester. Dispatch is transport-agnostic by contract: the same request line produces the
// same response bytes over stdin, a raw TCP connection
// (api/tcp_transport.h), or HTTP POST /v1/rpc (api/http_transport.h); CI
// diffs all three against one golden.
#pragma once

#include <iosfwd>

#include "api/dispatch.h"

namespace nwdec::api {

/// The stdin/stdout NDJSON loop. Empty lines are skipped; every response
/// is flushed immediately so the daemon composes with pipes.
class stdio_transport {
 public:
  stdio_transport(std::istream& in, std::ostream& out);
  /// Serves requests until EOF; returns a process exit code.
  int serve(dispatcher& handler);

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace nwdec::api
