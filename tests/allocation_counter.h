// The heap allocations this test binary has made so far. ingest_allocation_
// test.cc replaces the global operator new with a counting one for the whole
// binary, and allocation-contract tests read the count around a measured
// window (each gtest case runs in its own process under ctest).

#ifndef LDP_TESTS_ALLOCATION_COUNTER_H_
#define LDP_TESTS_ALLOCATION_COUNTER_H_

#include <cstdint>

uint64_t HeapAllocationCount();

#endif  // LDP_TESTS_ALLOCATION_COUNTER_H_
