#include "support/strings.hpp"

#include <cctype>
#include <charconv>

namespace tpdf::support {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  for (char c : s) {
    if (c == sep) {
      out.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

std::string formatDouble(double v, int digits) {
  std::string out;
  appendDouble(out, v, digits);
  return out;
}

void appendDouble(std::string& out, double v, int digits) {
  // Whatever `digits` asks for, %g prints at most the 767 significant
  // digits of a double's exact decimal expansion, a sign, a point and a
  // 5-character exponent (or up to 4 leading zeros).
  char tmp[800];
  const std::to_chars_result res = std::to_chars(
      tmp, tmp + sizeof(tmp), v, std::chars_format::general, digits);
  out.append(tmp, res.ptr);
}

}  // namespace tpdf::support
