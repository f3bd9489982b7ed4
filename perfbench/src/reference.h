// A fixed reference computation that measures how fast the host runs now.
//
// Host time on a shared machine swings by tens of percent over minutes as
// other tenants load the caches and cores. A run therefore times this
// kernel next to every round, and scales the round's host times by how
// much slower or faster than nominal the kernel ran. The kernel uses no
// code of the repository, so a change to the program does not move it.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>

namespace perfbench {

// Runs the kernel once on the calling thread and returns its host seconds.
// The kernel's work is the same on every call and is made of what the
// simulator's hot loop does: event-heap pushes and pops of callbacks,
// ordered-map lookups, erases and inserts over a ~6 MiB map, and small heap
// allocations.
double RunReferenceKernel();

// About the kernel's host seconds on one quiet core of a 2.1 GHz Xeon; a
// run reports host times scaled to a machine on which the kernel takes
// exactly this long.
inline constexpr double kReferenceNominalS = 0.2;

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
