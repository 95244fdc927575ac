#include "api/transport.h"

#include <istream>
#include <ostream>
#include <string>

namespace nwdec::api {

stdio_transport::stdio_transport(std::istream& in, std::ostream& out)
    : in_(in), out_(out) {}

int stdio_transport::serve(dispatcher& handler) {
  std::string line;
  while (std::getline(in_, line)) {
    if (line.empty()) continue;
    out_ << handler.handle_line(line) << std::flush;
  }
  return 0;
}

}  // namespace nwdec::api
