// livebench: the live-path benchmark's processes in one binary.
//
//   livebench origin ...   the bench-owned origin (origin.cpp)
//   livebench proxy ...    the proxy under test (proxy.cpp)
//   livebench gen ...      the load generator and response checker (gen.cpp)
//
// run.py starts all three and assembles the results.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace livebench {
int run_origin(const Args& args);
int run_proxy(const Args& args);
int run_gen(const Args& args);
}  // namespace livebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: livebench origin|proxy|gen --option value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const livebench::Args args(argc, argv, 2);
    if (command == "origin") return livebench::run_origin(args);
    if (command == "proxy") return livebench::run_proxy(args);
    if (command == "gen") return livebench::run_gen(args);
    std::fprintf(stderr, "livebench: unknown command %s\n", command.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench %s: %s\n", command.c_str(), e.what());
  }
  return 2;
}
