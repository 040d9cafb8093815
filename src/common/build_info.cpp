#include "common/build_info.h"

// CMake stamps these three onto this file alone (see the
// set_source_files_properties block in CMakeLists.txt); the fallbacks
// keep the file buildable outside CMake (IDE indexers, tooling).
#ifndef SHFLBW_GIT_SHA
#define SHFLBW_GIT_SHA "unknown"
#endif
#ifndef SHFLBW_BUILD_TYPE
#define SHFLBW_BUILD_TYPE ""
#endif
#ifndef SHFLBW_CXX_FLAGS
#define SHFLBW_CXX_FLAGS ""
#endif

namespace shflbw {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = SHFLBW_GIT_SHA;
    b.compiler = __VERSION__;
    b.build_type = SHFLBW_BUILD_TYPE;
    b.cxx_flags = SHFLBW_CXX_FLAGS;
    b.cxx_standard = __cplusplus;
    return b;
  }();
  return info;
}

}  // namespace shflbw
