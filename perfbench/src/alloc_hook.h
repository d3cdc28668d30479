// Heap-allocation counter compiled only into the benchmark binary: the
// global operator new/delete are replaced (alloc_hook.cc) so the traced run
// can report allocations per client operation without touching the library.

#ifndef PERFBENCH_ALLOC_HOOK_H_
#define PERFBENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  int64_t calls = 0;
  int64_t bytes = 0;
};

/// Counting is off by default, so untraced runs pay one relaxed load per
/// allocation and nothing else.
void SetAllocCounting(bool on);

/// Totals counted so far (sum over all threads' shards).
AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_HOOK_H_
