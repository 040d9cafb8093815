// Build provenance: the compile-time facts stamped into every
// BENCH_*.json (so tools/benchdiff can label the runs it compares) and
// into the statusz build section. The values come from CMake via
// per-file compile definitions on build_info.cpp only — changing the
// git sha recompiles one translation unit, not the tree.
#pragma once

#include <string>

namespace shflbw {

struct BuildInfo {
  std::string git_sha;     ///< `git rev-parse --short HEAD` at configure,
                           ///< or "unknown" outside a git checkout.
  std::string compiler;    ///< __VERSION__ of the compiler that built this.
  std::string build_type;  ///< CMAKE_BUILD_TYPE ("" for multi-config).
  std::string cxx_flags;   ///< CMAKE_CXX_FLAGS as configured.
  long cxx_standard = 0;   ///< __cplusplus of the build.
  bool obs_compiled_in = true;  ///< Always true: telemetry is always built.
};

/// The process's build info; constructed once, immutable after.
const BuildInfo& GetBuildInfo();

}  // namespace shflbw
