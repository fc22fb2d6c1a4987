#include "api/version.hpp"

#include <cstdlib>

// Both definitions are injected by CMake onto this source file only
// (set_source_files_properties in the root CMakeLists); the fallbacks
// keep stray builds (header checks, IDE single-TU parses) compiling.
#ifndef TPDF_VERSION_STRING
#define TPDF_VERSION_STRING "0.0.0"
#endif
#ifndef TPDF_GIT_DESCRIBE
#define TPDF_GIT_DESCRIBE "unknown"
#endif

namespace tpdf::api {

namespace {

Version parse() {
  Version v;
  v.semver = TPDF_VERSION_STRING;
  v.gitDescribe = TPDF_GIT_DESCRIBE;
  const char* p = v.semver.c_str();
  char* end = nullptr;
  v.major = static_cast<int>(std::strtol(p, &end, 10));
  if (end != nullptr && *end == '.') {
    v.minor = static_cast<int>(std::strtol(end + 1, &end, 10));
  }
  if (end != nullptr && *end == '.') {
    v.patch = static_cast<int>(std::strtol(end + 1, &end, 10));
  }
  return v;
}

}  // namespace

const Version& version() {
  static const Version v = parse();
  return v;
}

std::string Version::toString() const {
  return "tpdf " + semver + " (git " + gitDescribe + ")";
}

void Version::write(support::json::Writer& w) const {
  w.beginObject().member("semver", semver).member("major", major);
  w.member("minor", minor).member("patch", patch);
  w.member("git", gitDescribe).endObject();
}

void beginEnvelope(support::json::Writer& w, std::string_view tool,
                   std::string_view command) {
  w.beginObject().member("tool", tool).member("version", version().semver);
  w.member("command", command);
}

}  // namespace tpdf::api
