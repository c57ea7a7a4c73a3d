// Command-line parsing shared by the bench binaries.
//
// `--help`, `-h`, a malformed number or a stray argument prints the
// binary's usage line to stderr and exits 2, instead of escaping main as an
// uncaught std::invalid_argument from std::stoul.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sybiltd::bench {

// Print `why` (if any) and the usage line, then exit 2.
[[noreturn]] inline void usage_error(const char* usage,
                                     const char* why = nullptr) {
  if (why != nullptr) std::fprintf(stderr, "%s\n", why);
  std::fprintf(stderr, "usage: %s\n", usage);
  std::exit(2);
}

// Exit with the usage line when any argument asks for help.
inline void handle_help(int argc, char** argv, const char* usage) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage_error(usage);
    }
  }
}

// A whole decimal count >= `min`; anything else is a usage error.
inline std::size_t parse_count(const char* text, const char* usage,
                               std::size_t min = 0) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value =
      text[0] >= '0' && text[0] <= '9' ? std::strtoull(text, &end, 10) : 0;
  if (end == nullptr || *end != '\0' || errno == ERANGE || value < min) {
    char why[160];
    std::snprintf(why, sizeof(why), "bad count '%s' (need an integer >= %zu)",
                  text, min);
    usage_error(usage, why);
  }
  return static_cast<std::size_t>(value);
}

// The one optional positional count of a sweep bench (the seed count):
// argv[1] when given, `fallback` otherwise.
inline std::size_t optional_count(int argc, char** argv, std::size_t fallback,
                                  const char* usage) {
  handle_help(argc, argv, usage);
  if (argc > 2) usage_error(usage, "too many arguments");
  return argc > 1 ? parse_count(argv[1], usage, 1) : fallback;
}

}  // namespace sybiltd::bench
