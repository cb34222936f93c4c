#ifndef VIEWJOIN_ALGO_HOLISTIC_STATS_H_
#define VIEWJOIN_ALGO_HOLISTIC_STATS_H_

#include <cstdint>

namespace viewjoin::algo {

/// Runtime counters shared by the holistic algorithms (TwigStack, ViewJoin).
struct HolisticStats {
  /// List entries examined (cursor head reads that advanced processing).
  uint64_t entries_scanned = 0;
  /// Entries skipped without examination via materialized pointers.
  uint64_t entries_skipped = 0;
  /// Pointer dereferences (following/child jumps).
  uint64_t pointer_jumps = 0;
  /// Candidate solution nodes collected (stack pushes / F insertions).
  uint64_t candidates = 0;
  /// Output flushes (per-root enumeration rounds).
  uint64_t flushes = 0;
  /// Flushes whose every candidate list carried a proof, which skipped the
  /// output pass's semi-join filter (OutputPass).
  uint64_t certified_flushes = 0;
  /// Candidate lists the semi-join filter checked, summed over flushes: one
  /// per query node left unproven by its flush.
  uint64_t filtered_lists = 0;
  /// Entries the output pass's extension step collected for query nodes
  /// removed from the segmented query (ViewJoin).
  uint64_t extended = 0;
  /// Entries the termination drain buffered (counted in `candidates` too).
  uint64_t drained = 0;
  /// Peak number of buffered candidate nodes (memory-mode footprint proxy).
  uint64_t peak_buffered = 0;
  /// Pages written + read through the spill file (disk output mode).
  uint64_t spill_pages_written = 0;
  uint64_t spill_pages_read = 0;
  /// Time spent in the output pass (ExtendRemoved + enumeration), and the
  /// work done there — the planner's "extension walk" plan step reports these
  /// separately from the segment-evaluation counters above.
  double output_pass_ms = 0.0;
  uint64_t output_entries_scanned = 0;
  uint64_t output_pointer_jumps = 0;

  HolisticStats& operator+=(const HolisticStats& other) {
    entries_scanned += other.entries_scanned;
    entries_skipped += other.entries_skipped;
    pointer_jumps += other.pointer_jumps;
    candidates += other.candidates;
    flushes += other.flushes;
    certified_flushes += other.certified_flushes;
    filtered_lists += other.filtered_lists;
    extended += other.extended;
    drained += other.drained;
    if (other.peak_buffered > peak_buffered) {
      peak_buffered = other.peak_buffered;
    }
    spill_pages_written += other.spill_pages_written;
    spill_pages_read += other.spill_pages_read;
    output_pass_ms += other.output_pass_ms;
    output_entries_scanned += other.output_entries_scanned;
    output_pointer_jumps += other.output_pointer_jumps;
    return *this;
  }
};

/// How query solutions are buffered before the output pass (paper Section IV
/// "Variations of the ViewJoin algorithm" and Section VI-E).
enum class OutputMode {
  kMemory,  // keep all intermediate solutions in memory ("TS-M"/"VJ-M")
  kDisk,    // spill intermediate solutions, re-read to emit ("TS-D"/"VJ-D")
};

}  // namespace viewjoin::algo

#endif  // VIEWJOIN_ALGO_HOLISTIC_STATS_H_
