// Wire registration for test actors. Every cross-silo send travels the wire
// lane, so each test actor method called from the client or from another
// silo needs a MethodRegistry entry. Test files register theirs once, at
// static-initialization time, before any test builds a cluster:
//
//   [[maybe_unused]] const bool kWireRegistered = [] {
//     RegisterWireOrDie(Counter::kTypeName, &Counter::Add, "Counter.Add");
//     return true;
//   }();

#ifndef AODB_TESTS_WIRE_TEST_UTIL_H_
#define AODB_TESTS_WIRE_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>

#include "actor/method_registry.h"

namespace aodb {

/// Aborts the test binary when a wire registration failed (a method-id
/// collision is a bug in the test's registration list).
inline void DieOnWireError(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "wire registration of %s failed: %s\n", what,
               st.ToString().c_str());
  std::abort();
}

/// Registers one wire method, aborting the test binary if that fails.
template <typename R, typename C, typename... MArgs>
void RegisterWireOrDie(const char* type_name, R (C::*method)(MArgs...),
                       const char* method_name, bool idempotent = false) {
  DieOnWireError(MethodRegistry::Global().Register(type_name, method,
                                                   method_name, idempotent),
                 method_name);
}

}  // namespace aodb

#endif  // AODB_TESTS_WIRE_TEST_UTIL_H_
