// The reference kernel: a fixed amount of the benchmark's own work, timed
// around the timed passes so that times can be expressed in units of the
// host's current speed.
//
// On a shared VM the speed of the whole host drifts over minutes (other
// tenants come and go): ten runs of the same code on one host spread by
// up to 0.3 (quartile distance over median) in wall clock. The kernel
// runs right before and after each timed pass, on every CPU the pass
// rotates over (reference_pass in report.hpp); a pass time divided by
// the kernel time around it cancels most of that drift. It is compiled
// apart from the program, with fixed flags, so no change to the program
// or its build options moves it.
#pragma once

#include <cstdint>

namespace perfbench {

/// One run of the kernel: four rounds of 32 Ki inserts into and 32 Ki
/// lookups in a std::map of small vectors (allocation, pointer chasing
/// and branchy compares, as in the simulators' bookkeeping). Returns a
/// checksum that is the same on every run.
std::uint64_t reference_work();

}  // namespace perfbench
