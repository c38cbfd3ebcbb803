#include "obs/build_info.h"

#include <cstdlib>
#include <thread>

#include "obs/json_writer.h"

// Set by src/CMakeLists.txt at configure time; a build configured by other
// means has no SHA to report.
#ifndef CGRAF_BUILD_GIT_SHA
#define CGRAF_BUILD_GIT_SHA "unknown"
#endif

namespace cgraf::obs {

std::string build_git_sha() { return CGRAF_BUILD_GIT_SHA; }

std::string git_sha() {
  static const std::string sha = [] {
    // Read once under the function-local static's init guard; nothing in
    // this process calls setenv, so the getenv race flagged by
    // concurrency-mt-unsafe cannot occur.
    if (const char* env = std::getenv("CGRAF_GIT_SHA");  // NOLINT(concurrency-mt-unsafe)
        env != nullptr && env[0] != '\0') {
      return std::string(env);
    }
    return build_git_sha();
  }();
  return sha;
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

long hardware_threads() {
  return static_cast<long>(std::thread::hardware_concurrency());
}

void append_build_info_fields(JsonWriter& w) {
  w.field("git_sha", git_sha());
  w.field("compiler", compiler_id());
  w.field("hardware_threads", hardware_threads());
}

}  // namespace cgraf::obs
