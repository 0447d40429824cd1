#ifndef XPTC_EXEC_SUPEROPT_H_
#define XPTC_EXEC_SUPEROPT_H_

#include <memory>

#include "exec/program.h"

namespace xptc {
namespace exec {

/// Returns `program` unchanged. `Program::Compile` applies every rewrite
/// itself, and nothing in the library calls this. It is kept only because
/// the repository benchmark's `plan.superopt_us` probe
/// (perfbench/probes.cc) includes this header and calls it, and that
/// directory is changed only together with the benchmark itself; the next
/// change to the benchmark retires this function together with that probe.
inline std::shared_ptr<const Program> Superoptimize(
    std::shared_ptr<const Program> program) {
  return program;
}

}  // namespace exec
}  // namespace xptc

#endif  // XPTC_EXEC_SUPEROPT_H_
