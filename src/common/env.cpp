#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "common/check.hpp"

namespace ppstap {

namespace {

// getenv with "empty means unset" semantics; also trims surrounding
// whitespace so `VAR=" 3 "` parses like `VAR=3`.
std::optional<std::string> env_text(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  std::string s(raw);
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  s = s.substr(b, e - b);
  if (s.empty()) return std::nullopt;
  return s;
}

[[noreturn]] void bad_value(const char* name, const std::string& text,
                            const std::string& expected) {
  throw Error(std::string(name) + ": invalid value '" + text +
              "' (expected " + expected + ")");
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

std::optional<long long> parse_env_int(const char* name, long long lo,
                                       long long hi) {
  const auto text = env_text(name);
  if (!text) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0' || errno == ERANGE)
    bad_value(name, *text, "an integer");
  if (v < lo || v > hi)
    bad_value(name, *text,
              "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  return v;
}

std::optional<bool> parse_env_flag(const char* name) {
  const auto text = env_text(name);
  if (!text) return std::nullopt;
  const std::string v = lower(*text);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(name, *text, "one of 1/0, true/false, yes/no, on/off");
}

std::optional<size_t> parse_env_choice(
    const char* name, std::initializer_list<const char*> choices) {
  const auto text = env_text(name);
  if (!text) return std::nullopt;
  const std::string v = lower(*text);
  size_t i = 0;
  std::string expected = "one of";
  for (const char* c : choices) {
    if (v == lower(c)) return i;
    expected += (i == 0 ? " " : ", ");
    expected += c;
    ++i;
  }
  bad_value(name, *text, expected);
}

}  // namespace ppstap
