#ifndef VIEWJOIN_STORAGE_LIST_SEARCH_H_
#define VIEWJOIN_STORAGE_LIST_SEARCH_H_

#include <cstdint>

namespace viewjoin::storage {

/// Result of a galloping lower-bound: the first index at which the monotone
/// predicate flipped (or `size` when it never did), plus whether the search
/// was cut short by its probe hook (cancellation / deadline).
struct GallopResult {
  uint32_t pos = 0;
  bool aborted = false;
};

/// Overflow-safe galloping + binary-search lower bound over [from, size).
///
/// `below(i)` must be monotone: true on a (possibly empty) prefix of the
/// range, false after — "entry i is still below the target". Returns the
/// first index where `below` is false, or `size` when every entry is below.
///
/// `on_probe()` runs before every `below` evaluation (both the exponential
/// probes and the binary-search midpoints); returning true aborts the search
/// and yields the tightest bound proven so far — every index < pos is known
/// below the target, so a caller that seeks to pos skips only dead entries.
///
/// This is the one shared skip-search core: the entry-level cursor paths and
/// the block cursor's page gallop both route through it, so the uint32 overflow
/// that the old open-coded loops had (`lo + step` wrapping near 2^31
/// entries, looping forever) is fixed in exactly one place. All arithmetic
/// here is on differences (`step < hi - lo`), which cannot wrap.
template <typename BelowFn, typename ProbeFn>
GallopResult GallopLowerBound(uint32_t from, uint32_t size, BelowFn&& below,
                              ProbeFn&& on_probe) {
  if (from >= size) return {size, false};
  if (on_probe()) return {from, true};
  if (!below(from)) return {from, false};
  // Invariant: below(lo) is true, and hi is `size` or an index where below
  // is false. Exponential probes double the step without ever computing an
  // index above hi (step is compared against hi - lo, never added blindly).
  uint32_t lo = from;
  uint32_t hi = size;
  uint32_t step = 1;
  while (step < hi - lo) {
    uint32_t probe = lo + step;
    if (on_probe()) return {lo + 1, true};
    if (below(probe)) {
      lo = probe;
      step = step <= (0xFFFFFFFFu >> 1) ? step * 2 : step;
    } else {
      hi = probe;
      break;
    }
  }
  // Binary search in (lo, hi): first index where below flips.
  while (hi - lo > 1) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (on_probe()) return {lo + 1, true};
    if (below(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return {hi, false};
}

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_LIST_SEARCH_H_
