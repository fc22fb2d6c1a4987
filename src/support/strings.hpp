// Small string helpers used across the project.
#pragma once

#include <string>
#include <vector>

namespace tpdf::support {

/// Joins the elements of `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if `s` starts with `prefix`.
bool startsWith(const std::string& s, const std::string& prefix);

/// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char sep);

/// Renders a double with `digits` significant digits, trimming trailing
/// zeros ("12.5", "3", "0.001"): printf's "%.{digits}g", which is also
/// what an ostream prints at precision(digits).
std::string formatDouble(double v, int digits = 6);

/// formatDouble(v, digits) appended to `out`.
void appendDouble(std::string& out, double v, int digits = 6);

}  // namespace tpdf::support
