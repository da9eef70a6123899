// tfmae_report — render run ledgers written by the --ledger= flag (see
// docs/OBSERVABILITY.md, "Run ledger & flight recorder").
//
//   tfmae_report RUN.jsonl             one-run summary
//   tfmae_report RUN_A.jsonl RUN_B.jsonl
//                                      summary of each run, then a diff:
//                                      per-epoch loss deltas and K-S
//                                      score-distribution drift
//   --no-timing                        suppress wall-clock-derived figures
//                                      (byte-stable output for goldens)
//   --epochs=N                         cap the per-epoch loss tables at N rows
//
// A crashed run's "<path>.partial" is picked up automatically when the
// sealed file does not exist; the report marks such runs "UNSEALED prefix".
// Flag parsing is strict (tools/flags.h). Exit status: 0 on success and for
// --help; 2 with usage on stderr for an unknown flag, a malformed value or
// not one or two ledgers; 1 for an unreadable ledger.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "flags.h"
#include "obs/ledger.h"
#include "obs/report.h"

int main(int argc, char** argv) {
  bool no_timing = false;
  std::int64_t epochs = 0;
  const std::vector<tfmae::tools::Flag> flags = {
      {"no-timing", &no_timing},
      {"epochs", &epochs},
  };
  const tfmae::tools::Usage usage = {"tfmae_report", "LEDGER [LEDGER_B]", ""};
  std::vector<std::string> paths;
  if (const std::optional<int> exit_code =
          tfmae::tools::ParseFlags(argc, argv, usage, flags, &paths)) {
    return *exit_code;
  }
  if (paths.empty() || paths.size() > 2) {
    std::fprintf(stderr, "tfmae_report: expected one or two ledgers\n");
    tfmae::tools::PrintUsage(stderr, usage, flags);
    return 2;
  }
  tfmae::obs::ReportOptions options;
  options.show_timing = !no_timing;
  options.max_epoch_rows = static_cast<int>(
      std::min<std::int64_t>(epochs, std::numeric_limits<int>::max()));

  std::vector<tfmae::obs::LedgerFile> ledgers;
  for (const std::string& path : paths) {
    std::string error;
    auto file = tfmae::obs::ReadLedger(path, &error);
    if (!file.has_value()) {
      std::fprintf(stderr, "tfmae_report: cannot read %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    ledgers.push_back(std::move(*file));
  }

  for (const tfmae::obs::LedgerFile& file : ledgers) {
    std::fputs(tfmae::obs::RenderRunReport(file, options).c_str(), stdout);
  }
  if (ledgers.size() == 2) {
    std::fputs(
        tfmae::obs::RenderRunDiff(ledgers[0], ledgers[1], options).c_str(),
        stdout);
  }
  return 0;
}
