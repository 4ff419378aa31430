// trace_check: validate Chrome trace-event JSON files produced by the
// observability exporters (examples/lbchat_sim_cli --trace-out, or the bench
// harness with LBCHAT_TRACE=1). Used by CI as a smoke check that exported
// traces stay loadable in Perfetto / chrome://tracing.
//
// Usage: trace_check FILE [FILE...]
// Exit status: 0 if every file validates, 1 otherwise.

#include <cstdio>
#include <string>

#include "common/file_io.h"
#include "obs/export.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: trace_check FILE [FILE...]\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::string body;
    if (!lbchat::read_file(argv[i], body)) {
      std::fprintf(stderr, "%s: cannot read\n", argv[i]);
      ++failures;
      continue;
    }
    const std::string err = lbchat::obs::validate_chrome_trace(body);
    if (err.empty()) {
      std::printf("%s: ok (%zu bytes)\n", argv[i], body.size());
    } else {
      std::fprintf(stderr, "%s: INVALID: %s\n", argv[i], err.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
