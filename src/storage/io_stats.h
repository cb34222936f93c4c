#ifndef VIEWJOIN_STORAGE_IO_STATS_H_
#define VIEWJOIN_STORAGE_IO_STATS_H_

#include <cstdint>

namespace viewjoin::storage {

/// I/O counters maintained by the pager and buffer pool. The paper reports
/// "I/O time" as a share of total processing time and argues about page
/// accesses saved by schemes/algorithms; these counters expose both the page
/// counts and the wall time spent inside page reads/writes.
struct IoStats {
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  int64_t read_micros = 0;
  int64_t write_micros = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  /// Extra physical read attempts spent recovering transient read failures.
  uint64_t read_retries = 0;
  /// Read-ahead speculation: pages queued for background fetch, demand
  /// fetches served by a prefetched frame, and prefetched frames evicted
  /// untouched. issued >= hits + wasted (the remainder is still cached).
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  /// Delta list pages varint-decoded: once per pool residency of a page,
  /// so a warm repeat of a query decodes none. decode_mismatches counts the
  /// fetches that found a page cached under another list's decode key and
  /// decoded it privately instead (0 unless page reuse lost a discard).
  uint64_t pages_decoded = 0;
  uint64_t decode_mismatches = 0;

  IoStats& operator+=(const IoStats& other) {
    pages_read += other.pages_read;
    pages_written += other.pages_written;
    read_micros += other.read_micros;
    write_micros += other.write_micros;
    pool_hits += other.pool_hits;
    pool_misses += other.pool_misses;
    read_retries += other.read_retries;
    prefetch_issued += other.prefetch_issued;
    prefetch_hits += other.prefetch_hits;
    prefetch_wasted += other.prefetch_wasted;
    pages_decoded += other.pages_decoded;
    decode_mismatches += other.decode_mismatches;
    return *this;
  }

  IoStats Delta(const IoStats& since) const {
    IoStats d;
    d.pages_read = pages_read - since.pages_read;
    d.pages_written = pages_written - since.pages_written;
    d.read_micros = read_micros - since.read_micros;
    d.write_micros = write_micros - since.write_micros;
    d.pool_hits = pool_hits - since.pool_hits;
    d.pool_misses = pool_misses - since.pool_misses;
    d.read_retries = read_retries - since.read_retries;
    d.prefetch_issued = prefetch_issued - since.prefetch_issued;
    d.prefetch_hits = prefetch_hits - since.prefetch_hits;
    d.prefetch_wasted = prefetch_wasted - since.prefetch_wasted;
    d.pages_decoded = pages_decoded - since.pages_decoded;
    d.decode_mismatches = decode_mismatches - since.decode_mismatches;
    return d;
  }

  double TotalIoMillis() const {
    return static_cast<double>(read_micros + write_micros) / 1000.0;
  }
};

}  // namespace viewjoin::storage

#endif  // VIEWJOIN_STORAGE_IO_STATS_H_
