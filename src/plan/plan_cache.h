#ifndef VIEWJOIN_PLAN_PLAN_CACHE_H_
#define VIEWJOIN_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "plan/physical_plan.h"

namespace viewjoin::plan {

/// Cache of planned queries, keyed by (query fingerprint, environment
/// fingerprint, catalog manifest epoch).
///
/// The environment fingerprint folds in everything besides the pattern that
/// shapes the plan: requested algorithm, output mode, and the identities of
/// the caller-supplied views — two queries with the same pattern but
/// different covering sets must not share a plan. The catalog epoch is the
/// invalidation lever: materializing, quarantining or replacing any view
/// advances it (and, for a persistent store, it resumes from the manifest
/// journal across restarts), so every cached plan referencing the old catalog state goes
/// stale at once without the cache enumerating dependencies. Stale entries
/// are overwritten lazily on the next insert with the same (fingerprint,
/// env) pair.
///
/// Thread-safe; concurrent engine sessions share one cache. View pointers inside
/// cached plans stay valid because the catalog owns every view for its
/// lifetime (quarantined views included).
class PlanCache {
 public:
  struct Key {
    uint64_t query_fingerprint = 0;
    uint64_t env_fingerprint = 0;
    uint64_t catalog_epoch = 0;
  };

  /// Returns the cached plan for `key`, or nullptr. A hit's catalog epoch
  /// matches exactly — plans from older catalog states never resolve.
  std::shared_ptr<const PhysicalPlan> Lookup(const Key& key);

  /// Stores `plan` under `key`, replacing any entry for the same
  /// (fingerprint, env) pair — at most one catalog epoch is retained per
  /// logical query, so quarantine churn cannot grow the cache.
  void Insert(const Key& key, std::shared_ptr<const PhysicalPlan> plan);

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;
  void Clear();

 private:
  struct Entry {
    uint64_t catalog_epoch = 0;
    std::shared_ptr<const PhysicalPlan> plan;
  };

  static uint64_t MapKey(const Key& key);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace viewjoin::plan

#endif  // VIEWJOIN_PLAN_PLAN_CACHE_H_
