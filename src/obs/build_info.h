// Build/host provenance stamped into every machine-readable artifact
// (event-log headers, BENCH_*.json documents) so artifacts produced weeks
// apart on different machines stay comparable.
#pragma once

#include <string>

namespace cgraf::obs {

class JsonWriter;

// Git commit SHA of the build. Resolution order:
//   1. the CGRAF_GIT_SHA environment variable (CI sets it; also the test
//      seam),
//   2. build_git_sha().
// Independent of the process's working directory.
std::string git_sha();

// The source tree's `git rev-parse HEAD`, baked in at configure time;
// "unknown" when the tree was configured outside a git work tree.
std::string build_git_sha();

// Compiler identity, e.g. "gcc 12.2.0" or "clang 15.0.7".
std::string compiler_id();

// std::thread::hardware_concurrency(), as a long for JSON.
long hardware_threads();

// Appends the standard provenance fields to `w` (in fragment or object
// context): git_sha, compiler, hardware_threads.
void append_build_info_fields(JsonWriter& w);

}  // namespace cgraf::obs
