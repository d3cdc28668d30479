// Multi-actor query helpers: type-wide scans (via the type registry) and
// indexed lookups followed by per-actor projection. The paper notes that
// declarative multi-actor querying is the least mature AODB feature and
// that developers decompose queries by hand; these helpers are that
// decomposition, packaged.

#ifndef AODB_AODB_QUERY_H_
#define AODB_AODB_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "aodb/index.h"
#include "aodb/registry.h"

namespace aodb {

namespace internal {

/// The one scatter-gather both query forms share: once `keys` resolves,
/// calls projection `m` on each keyed TActor and collects the values in key
/// order. A failed key lookup or any failed projection fails the query with
/// the first error.
template <typename TActor, typename R, typename C, typename... MArgs,
          typename... Args>
Future<std::vector<typename CallResult<R>::type>> ProjectKeys(
    Future<std::vector<std::string>> keys, Cluster& cluster,
    R (C::*m)(MArgs...), Args... args) {
  using RT = typename CallResult<R>::type;
  Promise<std::vector<RT>> out;
  keys.OnReady([&cluster, m, out,
                args...](Result<std::vector<std::string>>&& found) mutable {
    if (!found.ok()) {
      out.SetError(found.status());
      return;
    }
    std::vector<Future<RT>> calls;
    calls.reserve(found.value().size());
    for (const std::string& key : found.value()) {
      calls.push_back(cluster.Ref<TActor>(key).Call(m, args...));
    }
    AllValues(calls).OnReady([out](Result<std::vector<RT>>&& values) {
      out.SetResult(std::move(values));
    });
  });
  return out.GetFuture();
}

}  // namespace internal

/// Calls projection method `m` on every registered actor of type TActor and
/// returns the collected values (order unspecified). Any failed projection
/// fails the whole query.
template <typename TActor, typename R, typename C, typename... MArgs,
          typename... Args>
Future<std::vector<typename internal::CallResult<R>::type>> QueryAll(
    Cluster& cluster, R (C::*m)(MArgs...), Args... args) {
  return internal::ProjectKeys<TActor>(
      TypeRegistry::ListAll(cluster, TActor::kTypeName), cluster, m, args...);
}

/// QueryAll with a client-side predicate applied to each projected value.
template <typename TActor, typename R, typename C, typename... MArgs>
Future<std::vector<typename internal::CallResult<R>::type>> QueryWhere(
    Cluster& cluster, R (C::*m)(MArgs...),
    std::function<bool(const typename internal::CallResult<R>::type&)>
        predicate) {
  using RT = typename internal::CallResult<R>::type;
  return QueryAll<TActor>(cluster, m)
      .Then([predicate = std::move(predicate)](std::vector<RT>&& values) {
        std::vector<RT> kept;
        for (auto& v : values) {
          if (predicate(v)) kept.push_back(std::move(v));
        }
        return kept;
      });
}

/// Indexed query: looks up actor keys by attribute value in `index`, then
/// calls projection `m` on each hit.
template <typename TActor, typename R, typename C, typename... MArgs,
          typename... Args>
Future<std::vector<typename internal::CallResult<R>::type>> QueryByIndex(
    Cluster& cluster, const ActorIndex& index, const std::string& value,
    R (C::*m)(MArgs...), Args... args) {
  return internal::ProjectKeys<TActor>(index.Lookup(cluster, value), cluster,
                                       m, args...);
}

}  // namespace aodb

#endif  // AODB_AODB_QUERY_H_
