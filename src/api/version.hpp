// Toolkit version identification.
//
// The semver comes from the CMake project() version; the git describe
// string is captured at configure time and baked into version.cpp via a
// per-source compile definition (so only that one TU rebuilds when the
// commit changes).  `tpdfc version` / `tpdfc --version` print this.
#pragma once

#include <string>
#include <string_view>

#include "support/json.hpp"

namespace tpdf::api {

struct Version {
  int major = 0;
  int minor = 0;
  int patch = 0;
  /// "0.2.0".
  std::string semver;
  /// `git describe --always --dirty` at configure time; "unknown" when
  /// the build did not run from a git checkout.
  std::string gitDescribe;

  /// "tpdf 0.2.0 (git 6d073f3)".
  std::string toString() const;

  /// {"semver": "0.2.0", "major": 0, "minor": 2, "patch": 0,
  /// "git": "6d073f3"}.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

/// The version of this build (computed once).
const Version& version();

/// Opens the response envelope that `tpdfc --json` and `tpdfd` print:
/// {"tool": tool, "version": <semver>, "command": command, — the caller
/// writes the response's members and closes the object.
void beginEnvelope(support::json::Writer& w, std::string_view tool,
                   std::string_view command);

}  // namespace tpdf::api
