// Strict command-line flags for the tools (tfmae_serve, tfmae_report).
//
// Each tool lists the flags it accepts; ParseFlags then takes argv apart
// against that list. `--name=value` sets a count, number or string target,
// bare `--name` sets a switch. An unknown flag, a stray argument, a value on
// a switch or a malformed value prints usage to stderr and yields exit
// status 2; `--help` prints usage to stdout and yields 0.
#ifndef TFMAE_TOOLS_FLAGS_H_
#define TFMAE_TOOLS_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tfmae::tools {

// One accepted flag: `--name=value` for a count, number or string target,
// bare `--name` for a switch.
struct Flag {
  const char* name;
  std::variant<std::int64_t*, double*, const char**, bool*> target;
};

// What a tool's usage text says around its flag list.
struct Usage {
  const char* program;   // "tfmae_serve"
  const char* operands;  // after "[flags]", e.g. "LEDGER [LEDGER_B]"
  const char* footer;    // lines after the flag list; may be empty
};

inline void PrintUsage(std::FILE* out, const Usage& usage,
                       const std::vector<Flag>& flags) {
  std::fprintf(out, "usage: %s [flags]%s%s\n", usage.program,
               usage.operands[0] == '\0' ? "" : " ", usage.operands);
  for (const Flag& flag : flags) {
    // Indexed like Flag::target's alternatives.
    static const char* const kValue[] = {"=N", "=X", "=VALUE", ""};
    std::fprintf(out, "  --%s%s\n", flag.name, kValue[flag.target.index()]);
  }
  std::fprintf(out, "  --help\n%s", usage.footer);
}

// A non-negative decimal integer, all of `text`.
inline bool ParseCount(const char* text, std::int64_t* out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

// A finite decimal number, all of `text`.
inline bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// Parses argv strictly against `flags` (see the file comment). Arguments
// that do not start with '-' go to `operands`; with `operands` null they
// are stray arguments. Returns nothing when the tool should go ahead.
inline std::optional<int> ParseFlags(
    int argc, char** argv, const Usage& usage, const std::vector<Flag>& flags,
    std::vector<std::string>* operands = nullptr) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      PrintUsage(stdout, usage, flags);
      return 0;
    }
    if (operands != nullptr && !arg.empty() && arg[0] != '-') {
      operands->emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const char* value =
        eq == std::string_view::npos ? nullptr : argv[i] + eq + 1;
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return name.substr(0, 2) == "--" && name.substr(2) == f.name;
        });
    if (flag == flags.end()) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", usage.program,
                   argv[i]);
      PrintUsage(stderr, usage, flags);
      return 2;
    }
    bool ok = true;
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      ok = value == nullptr;
      **on = true;
    } else if (value == nullptr || value[0] == '\0') {
      ok = false;
    } else if (auto* count = std::get_if<std::int64_t*>(&flag->target)) {
      ok = ParseCount(value, *count);
    } else if (auto* number = std::get_if<double*>(&flag->target)) {
      ok = ParseNumber(value, *number);
    } else {
      *std::get<const char**>(flag->target) = value;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value in '%s'\n", usage.program, argv[i]);
      PrintUsage(stderr, usage, flags);
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace tfmae::tools

#endif  // TFMAE_TOOLS_FLAGS_H_
