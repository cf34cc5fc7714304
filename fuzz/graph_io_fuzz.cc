// Fuzz harness for the untrusted graph-ingestion surface: the SNAP text
// edge-list parser (field splitting, integer/double parsing). The contract
// under fuzzing: arbitrary bytes may yield an error Status but must never
// crash, hang, overflow an allocation, or trip a sanitizer.
//
// Built two ways (fuzz/CMakeLists.txt): with clang as a libFuzzer binary
// (-fsanitize=fuzzer), elsewhere linked against standalone_driver.cc which
// replays corpus files passed on the command line — the form the ctest
// corpus smoke uses.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "subsim/graph/graph_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  // SUBSIM-NOLINT-NEXTLINE(status-discarded): fuzzing for crashes, not outcomes
  (void)subsim::ParseEdgeListText(in, "<fuzz>");
  return 0;
}
