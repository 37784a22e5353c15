// perfbench: the repository's end-to-end benchmark. See README.md.

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.mode == "prepare") {
    if (args.workload == "serve") return perfbench::PrepareServe(args);
    if (args.workload == "crawl") return perfbench::PrepareCrawl(args);
    return 0;  // learn generates its corpus in the measured process.
  }
  if (args.mode == "setup") {
    if (args.workload == "serve") return perfbench::SetupServe(args);
    if (args.workload == "crawl") return perfbench::SetupCrawl(args);
    perfbench::Fail("learn times its set-up in the measuring process");
  }
  if (args.workload == "serve") return perfbench::RunServe(args);
  if (args.workload == "crawl") return perfbench::RunCrawl(args);
  return perfbench::RunLearn(args);
}
