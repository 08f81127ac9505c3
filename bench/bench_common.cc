#include "bench/bench_common.h"

#include <sys/stat.h>

namespace tfmae::bench {

std::string ResultPath(const std::string& file_name) {
  ::mkdir("bench_results", 0755);  // best effort; ignore EEXIST
  return "bench_results/" + file_name;
}

}  // namespace tfmae::bench
