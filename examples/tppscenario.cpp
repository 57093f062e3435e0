// tppscenario — the data-driven scenario runner CLI.
//
//   tppscenario <file.scn>                 run, print the summary
//   tppscenario --print-config <file.scn>  parse + echo the canonical form
//
// Exit codes: 0 success, 1 incomplete run, 2 usage / parse error.
#include <cstdio>
#include <string>

#include "src/workload/scenario.hpp"

namespace {

void usage() {
  std::fprintf(stderr, "usage: tppscenario [--print-config] <file.scn>\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool printConfig = false;
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-config") {
      printConfig = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tppscenario: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage();
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  const auto parsed = tpp::workload::parseScenarioFile(path);
  if (!parsed.ok) {
    std::fprintf(stderr, "tppscenario: %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return 2;
  }

  if (printConfig) {
    std::fputs(tpp::workload::serializeScenario(parsed.config).c_str(),
               stdout);
    return 0;
  }

  const auto run = tpp::workload::runScenario(parsed.config);
  std::fputs(run.result.summaryText(parsed.config).c_str(), stdout);
  std::printf("events=%llu\n",
              static_cast<unsigned long long>(run.result.eventsExecuted));
  if (run.result.flows == 0) {
    std::fprintf(stderr, "tppscenario: schedule compiled to zero flows\n");
    return 1;
  }
  if (run.result.finished + run.result.failed < run.result.flows) {
    std::fprintf(stderr, "tppscenario: %zu flows never completed\n",
                 run.result.flows - run.result.finished - run.result.failed);
    return 1;
  }
  return 0;
}
