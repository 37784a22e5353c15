// The three workloads. Prepare* writes generated inputs and references into
// args.dir (run in its own process); Setup* times one set-up in a fresh
// process; Run* gates, measures and prints the report. Each returns the
// process exit code.

#ifndef NTW_PERFBENCH_WORKLOADS_H_
#define NTW_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int PrepareServe(const Args& args);
int SetupServe(const Args& args);
int RunServe(const Args& args);

int PrepareCrawl(const Args& args);
int SetupCrawl(const Args& args);
int RunCrawl(const Args& args);

int RunLearn(const Args& args);

}  // namespace perfbench

#endif  // NTW_PERFBENCH_WORKLOADS_H_
