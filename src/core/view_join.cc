#include "core/view_join.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "algo/output_pass.h"
#include "algo/spill_buffer.h"
#include "storage/materialized_view.h"
#include "storage/stored_list.h"
#include "util/check.h"
#include "util/timer.h"

namespace viewjoin::core {

using algo::HolisticStats;
using algo::OutputMode;
using algo::QueryBinding;
using algo::SpillBuffer;
using storage::EntryIndex;
using storage::kNullEntry;
using storage::ListCursor;
using storage::Scheme;
using tpq::Axis;
using tpq::TreePattern;
using xml::Label;

namespace {

constexpr Label kEndLabel{0xFFFFFFFFu, 0xFFFFFFFFu, 0};

/// A buffered F entry: the label plus its index in the source list (indexes
/// let the extension step dereference child pointers).
struct FEntry {
  Label label;
  EntryIndex index;
};

/// True when some Q' edge is not a Q edge: a removed node lies between a
/// kept node and its Q' parent. Such an edge joins Q' candidates that no
/// removed node connects (DESIGN.md §6 item 3), so pushes prove nothing.
bool HasCollapsedEdge(const TreePattern& query, const SegmentedQuery& sq) {
  for (size_t q = 1; q < query.size(); ++q) {
    if (sq.kept[q] && sq.parent[q] != query.node(static_cast<int>(q)).parent) {
      return true;
    }
  }
  return false;
}

}  // namespace

class ViewJoin::Impl {
 public:
  Impl(const QueryBinding& binding, const SegmentedQuery& sq,
       storage::BufferPool* pool, tpq::MatchSink* sink, OutputMode mode,
       storage::Pager* spill, HolisticStats* stats, algo::QueryContext* ctx)
      : binding_(binding),
        sq_(sq),
        query_(binding.query()),
        pool_(pool),
        sink_(sink),
        mode_(mode),
        stats_(stats),
        ctx_(ctx != nullptr ? ctx : &default_ctx_),
        output_(binding, /*pushes_proven=*/!HasCollapsedEdge(binding.query(),
                                                             sq)) {
    size_t nq = query_.size();
    cursors_.resize(nq);
    stacks_.resize(nq);
    buffer_.resize(nq);
    max_buffered_end_.assign(nq, 0);
    has_pointers_.assign(nq, 0);
    full_pointers_.assign(nq, 0);
    is_anchor_.assign(nq, 0);
    heads_.resize(nq);
    for (size_t q = 0; q < nq; ++q) {
      const algo::NodeBinding& nb = binding.binding(static_cast<int>(q));
      cursors_[q] = ListCursor(nb.list, pool);
      Scheme scheme =
          binding.views()[static_cast<size_t>(nb.view)]->scheme();
      has_pointers_[q] = scheme != Scheme::kElement;
      full_pointers_[q] = scheme == Scheme::kLinkedElement;
      RefreshHead(static_cast<int>(q));
    }
    for (int anchor : sq_.removed_anchor) {
      is_anchor_[static_cast<size_t>(anchor)] = 1;
    }
    // Child-pointer slots for extension anchors, precomputed. A pc view
    // edge's child pointer targets the first *level-matched* child, which
    // can overshoot descendants that deeper (nested) anchors still need, so
    // only ad-edge pointers are followed; pc edges locate the range start by
    // search.
    removed_slot_.resize(sq_.removed.size(), -1);
    removed_edge_ad_.resize(sq_.removed.size(), 0);
    for (size_t i = 0; i < sq_.removed.size(); ++i) {
      int r = sq_.removed[i];
      const algo::NodeBinding& rb = binding.binding(r);
      const TreePattern& vp =
          binding.views()[static_cast<size_t>(rb.view)]->pattern();
      removed_edge_ad_[i] =
          vp.node(rb.view_node).incoming == Axis::kDescendant;
      if (has_pointers_[static_cast<size_t>(r)]) {
        removed_slot_[i] =
            binding.ChildSlot(sq_.removed_anchor[i], sq_.removed[i]);
        VJ_CHECK(removed_slot_[i] >= 0);
      }
    }
    if (mode_ == OutputMode::kDisk) {
      VJ_CHECK(spill != nullptr) << "disk output mode requires a spill pager";
      spill_ = std::make_unique<SpillBuffer>(spill, nq, ctx_);
    }
  }

  void Run() {
    while (!ctx_->aborted()) {
      int q = GetNext(0);
      if (ctx_->aborted()) break;
      Label nq = Head(q);
      if (nq.start == kEndLabel.start) break;
      int parent = sq_.parent[static_cast<size_t>(q)];
      if (parent >= 0) CleanStack(parent, nq);
      if (parent < 0 || !stacks_[static_cast<size_t>(parent)].empty()) {
        CleanStack(q, nq);
        // Memory mode buffers the entire solution (the paper's memory-based
        // approach); disk mode flushes closed groups once enough labels have
        // been spilled, bounding resident memory.
        if (q == 0 && stacks_[0].empty() && mode_ == OutputMode::kDisk &&
            group_candidates_ >= kFlushThreshold && CanFlush()) {
          Flush();
        }
        Push(q, nq);
        Advance(q);
      } else {
        // No stacked parent holds q's head: it is dead, and so is every q
        // entry that starts before the parent's head.
        SkipDead(q, Head(parent).start);
      }
    }
    Drain();
    Flush();
  }

  /// A group flush is safe only once every buffered candidate's region is
  /// closed relative to every pending Q' stream head (candidates from a
  /// blocked branch can lag behind document order).
  bool CanFlush() {
    uint32_t max_end = 0;
    for (uint32_t end : max_buffered_end_) {
      if (end > max_end) max_end = end;
    }
    for (size_t q = 0; q < query_.size(); ++q) {
      if (!sq_.kept[q]) continue;
      Label head = Head(static_cast<int>(q));
      if (head.start != kEndLabel.start && head.start < max_end) return false;
    }
    return true;
  }

  /// Termination drain (see TwigStack::Impl::Drain): buffers remaining Q'
  /// entries that start inside a buffered region of their Q' parent, so that
  /// late branches still meet their already-buffered partners. Removed query
  /// nodes need no draining — the extension step walks them from anchors.
  void Drain() {
    for (size_t q = 0; q < query_.size(); ++q) {
      if (!sq_.kept[q]) continue;
      int parent = sq_.parent[q];
      uint32_t bound = 0;
      if (parent < 0) {
        for (uint32_t end : max_buffered_end_) {
          if (end > bound) bound = end;
        }
      } else {
        bound = max_buffered_end_[static_cast<size_t>(parent)];
      }
      ListCursor& cursor = cursors_[q];
      while (!cursor.AtEnd() && cursor.LabelAt().start < bound) {
        if (ctx_->Checkpoint()) return;
        ++stats_->entries_scanned;
        Buffer(static_cast<int>(q), cursor.LabelAt(), cursor.index());
        output_.MarkUnproven(q);
        ++stats_->drained;
        cursor.Next();
      }
    }
  }

 private:
  const Label& Head(int q) const { return heads_[static_cast<size_t>(q)]; }

  void RefreshHead(int q) {
    ListCursor& cursor = cursors_[static_cast<size_t>(q)];
    heads_[static_cast<size_t>(q)] = cursor.AtEnd() ? kEndLabel
                                                    : cursor.LabelAt();
  }

  void Advance(int q) {
    ++stats_->entries_scanned;
    ctx_->Checkpoint();
    cursors_[static_cast<size_t>(q)].Next();
    RefreshHead(q);
  }

  /// Advances C_q until Head(q).end >= bound, jumping via following
  /// pointers where materialized. A jump from entry e skips exactly e's
  /// same-type descendants, all of which end before e does — safe under any
  /// bound. A null pointer means "no following node at all" in the full LE
  /// scheme (jump to the end) but may mean "target was adjacent" in LE_p
  /// (step one entry and re-check).
  void AdvancePast(int q, uint32_t bound) {
    ListCursor& cursor = cursors_[static_cast<size_t>(q)];
    auto ck = [&](uint32_t n) { return ctx_->CheckpointN(n); };
    if (!has_pointers_[static_cast<size_t>(q)]) {
      // E scheme: pure forward scan — vectorized over decoded blocks.
      uint64_t scanned = 0;
      cursor.SkipEndsBelow(bound, /*one_block=*/false, &scanned, ck);
      stats_->entries_scanned += scanned;
      RefreshHead(q);
      return;
    }
    while (!cursor.AtEnd() && cursor.LabelAt().end < bound) {
      if (ctx_->Checkpoint()) break;
      EntryIndex follow = cursor.Following();
      if (follow != kNullEntry) {
        ++stats_->pointer_jumps;
        stats_->entries_skipped += follow - cursor.index() - 1;
        ++stats_->entries_scanned;
        cursor.Seek(follow);
        continue;
      }
      if (full_pointers_[static_cast<size_t>(q)]) {
        // Full LE: null means nothing follows; the rest are descendants.
        stats_->entries_skipped += cursor.size() - cursor.index() - 1;
        cursor.Seek(cursor.size());
        continue;
      }
      // LE_p: a null follow pointer may mean "target was adjacent" — advance
      // within the current decoded block (memory cursor: one entry) and
      // re-check the landing entry's pointer on the next loop turn.
      uint64_t scanned = 0;
      bool aborted =
          cursor.SkipEndsBelow(bound, /*one_block=*/true, &scanned, ck);
      stats_->entries_scanned += scanned;
      if (aborted) break;
    }
    RefreshHead(q);
  }

  /// Skips q's provably dead entries once its head found its Q' parent's
  /// stack empty: every entry that starts before `skip_to`, the parent's
  /// head.
  ///
  /// Parent stacks are cleaned only with labels that arrive in ascending
  /// start order (getNext returns the minimal extendable head for direct
  /// children), so the parent stack is never over-popped: a pending q-entry
  /// e can belong to a match only if some *stacked* parent region contains
  /// it, the parent cursor's current head region will, or a future parent
  /// candidate (start >= the parent's head start) will. With the stack
  /// empty, an entry that starts before the parent's head has none of them.
  ///
  /// TwigStack discards such entries one Run iteration each; the skip costs
  /// getNext nothing, since it runs only where an entry is discarded. Past
  /// the current block, LE/LE_p views jump over whole dead pages (their
  /// materialized pointers make lists random-access; charged as one pointer
  /// jump); E-scheme views advance sequentially, as the paper's
  /// advancePointers does for segment roots (lines 9-11). Out of line, so
  /// the Run loop stays as small as TwigStack's.
  [[gnu::noinline]] void SkipDead(int q, uint32_t skip_to) {
    ListCursor& cursor = cursors_[static_cast<size_t>(q)];
    auto ck = [&](uint32_t n) { return ctx_->CheckpointN(n); };
    // Dead entries are passed by a search over the decoded starts of the
    // blocks they lie on, counted as the entries it passes, as a scan
    // counts them. LE/LE_p lists stop at the block boundary first: when the
    // next page lies wholly below skip_to, they gallop instead (see
    // PageDeadBelow).
    const bool jump = has_pointers_[static_cast<size_t>(q)] != 0;
    uint64_t scanned = 0;
    bool aborted = cursor.SkipStartsBelow(skip_to, /*strict=*/false,
                                          /*one_block=*/jump, &scanned, ck);
    if (jump && !aborted && PageDeadBelow(cursor, skip_to)) {
      // Galloping search (overflow-safe, checkpointed — see list_search.h)
      // over the page fence keys, which reads only the landing page.
      EntryIndex from = cursor.index();
      uint64_t probes = 0;
      storage::SeekOutcome out =
          cursor.FindFirstStart(skip_to, /*strict=*/false, &probes, ck);
      stats_->entries_scanned += probes;  // probe reads are real skip work
      stats_->entries_skipped += out.pos - from;
      ++stats_->pointer_jumps;
      cursor.Seek(out.pos);
    } else if (jump && !aborted) {
      cursor.SkipStartsBelow(skip_to, /*strict=*/false, /*one_block=*/false,
                             &scanned, ck);
    }
    stats_->entries_scanned += scanned;
    RefreshHead(q);
  }

  /// True when `cursor` sits on the first entry of a page that is not the
  /// list's last and lies wholly below `bound` (the next page's fence key
  /// is at most `bound`). A gallop from there skips at least that page,
  /// more entries than it probes, and reads no page but where it lands.
  static bool PageDeadBelow(const ListCursor& cursor, uint32_t bound) {
    if (cursor.AtEnd()) return false;
    const storage::StoredList& list = cursor.list();
    const uint32_t page = list.PageIndexOf(cursor.index());
    return list.FirstEntryOfPage(page) == cursor.index() &&
           page + 1 < list.PageSpan() &&
           list.page_first_start[page + 1] <= bound;
  }

  /// Holistic getNext over the view-segmented query Q' (children per Q'
  /// structure). Identical contract to TwigStack's getNext, but iterating
  /// only over Q' nodes and skipping via pointers in the advance loop.
  int GetNext(int q) {
    const std::vector<int>& children = sq_.children[static_cast<size_t>(q)];
    if (children.empty()) return q;
    int qmin = -1;
    int qmax = -1;
    for (int c : children) {
      int n = GetNext(c);
      if (n != c) return n;
      Label head = Head(c);
      if (qmin < 0 || head.start < Head(qmin).start) qmin = c;
      if (qmax < 0 || head.start > Head(qmax).start) qmax = c;
    }
    const uint32_t max_start = Head(qmax).start;
    if (Head(q).end < max_start) AdvancePast(q, max_start);
    if (Head(q).start < Head(qmin).start) return q;
    return qmin;
  }

  void CleanStack(int q, const Label& next) {
    auto& stack = stacks_[static_cast<size_t>(q)];
    while (!stack.empty() && stack.back().end < next.start) stack.pop_back();
  }

  void Push(int q, const Label& label) {
    stacks_[static_cast<size_t>(q)].push_back(label);
    Buffer(q, label, cursors_[static_cast<size_t>(q)].index());
  }

  /// Buffers a kept-node candidate into the group (spilling in disk mode).
  void Buffer(int q, const Label& label, EntryIndex index) {
    ++stats_->candidates;
    ++group_candidates_;
    if (label.end > max_buffered_end_[static_cast<size_t>(q)]) {
      max_buffered_end_[static_cast<size_t>(q)] = label.end;
    }
    if (mode_ == OutputMode::kDisk) {
      spill_->Append(static_cast<size_t>(q), label);
      // Anchors stay resident: the extension step needs their entry indexes.
      if (is_anchor_[static_cast<size_t>(q)]) {
        BufferEntry(q, label, index);
      }
    } else {
      BufferEntry(q, label, index);
    }
  }

  void BufferEntry(int q, const Label& label, EntryIndex index) {
    buffer_[static_cast<size_t>(q)].push_back(FEntry{label, index});
    ++buffered_;
    if (buffered_ > stats_->peak_buffered) stats_->peak_buffered = buffered_;
    charged_memory_ += sizeof(FEntry);
    ctx_->ChargeMemory(sizeof(FEntry));
  }

  /// Output pass for the closed root group: extend F to the removed query
  /// nodes, then enumerate all matches embedded in the buffered candidates.
  void Flush() {
    // An aborted run's candidates are never extended or enumerated (their
    // partial output would be discarded anyway); the buffers die with Impl.
    if (ctx_->aborted()) return;
    // Attribute the pass's time and scan/jump work to the output-pass
    // counters (deltas, since ExtendRemoved shares the segment counters) so
    // the plan layer can report the extension walk as its own step.
    util::Timer output_timer;
    const uint64_t scanned_before = stats_->entries_scanned;
    const uint64_t jumps_before = stats_->pointer_jumps;
    FlushImpl();
    stats_->output_pass_ms += output_timer.ElapsedMillis();
    stats_->output_entries_scanned += stats_->entries_scanned - scanned_before;
    stats_->output_pointer_jumps += stats_->pointer_jumps - jumps_before;
  }

  void FlushImpl() {
    // Step 1: extension. Removed nodes are visited anchors-first, so an
    // anchor's proof mark is final before its removed children take it:
    // entries extended under unproven (drained) anchors are unproven too.
    for (size_t i = 0; i < sq_.removed.size(); ++i) {
      int r = sq_.removed[i];
      int anchor = sq_.removed_anchor[i];
      if (output_.unproven(static_cast<size_t>(anchor))) {
        output_.MarkUnproven(static_cast<size_t>(r));
      }
      ExtendRemoved(r, anchor, removed_slot_[i], removed_edge_ad_[i] != 0);
      if (ctx_->aborted()) return;
    }
    // Step 2: resolve every F entry's label once, then enumerate.
    for (size_t q = 0; q < query_.size(); ++q) {
      bool resolved =
          mode_ == OutputMode::kDisk
              ? output_.Resolve(q, spill_->Drain(q), ctx_)
              : output_.Resolve(
                    q, buffer_[q],
                    [](const FEntry& e) -> const Label& { return e.label; },
                    ctx_);
      buffer_[q].clear();
      if (!resolved) return;
    }
    if (mode_ == OutputMode::kDisk) {
      stats_->spill_pages_written = spill_->pages_written();
      stats_->spill_pages_read = spill_->pages_read();
    }
    buffered_ = 0;
    group_candidates_ = 0;
    std::fill(max_buffered_end_.begin(), max_buffered_end_.end(), 0);
    // The flushed F entries are freed; return their budget charge.
    ctx_->ReleaseMemory(charged_memory_);
    charged_memory_ = 0;
    output_.Enumerate(sink_, ctx_, stats_);
  }

  /// Collects the F entries of removed node `r` under the buffered entries
  /// of its in-view anchor. Only outermost anchor entries are used (nested
  /// anchors cover subsets), so collected entries are unique and sorted.
  void ExtendRemoved(int r, int anchor, int slot, bool edge_is_ad) {
    const std::vector<FEntry>& anchors = buffer_[static_cast<size_t>(anchor)];
    ListCursor anchor_cursor(binding_.binding(anchor).list, pool_);
    ListCursor& rcursor = cursors_[static_cast<size_t>(r)];
    uint32_t prev_end = 0;
    for (const FEntry& a : anchors) {
      if (ctx_->Checkpoint()) return;
      if (a.label.start < prev_end) continue;  // nested in previous anchor
      prev_end = a.label.end;
      if (has_pointers_[static_cast<size_t>(r)]) {
        EntryIndex target;
        if (edge_is_ad) {
          // The ad child pointer targets exactly the first r-entry inside
          // the anchor's region.
          anchor_cursor.Seek(a.index);
          target = anchor_cursor.Child(static_cast<uint32_t>(slot));
          VJ_DCHECK(target != kNullEntry);
        } else {
          // pc edge: find the region start by galloping search instead (the
          // pc pointer may overshoot entries that nested anchors need).
          uint64_t probes = 0;
          storage::SeekOutcome out = rcursor.FindFirstStart(
              a.label.start, /*strict=*/true, &probes,
              [&](uint32_t n) { return ctx_->CheckpointN(n); });
          stats_->entries_scanned += probes;
          target = out.pos;
        }
        if (target > rcursor.index()) {
          stats_->entries_skipped += target - rcursor.index();
          ++stats_->pointer_jumps;
          rcursor.Seek(target);
        }
      } else {
        // E scheme: shared monotone scan of L_r.
        uint64_t scanned = 0;
        rcursor.SkipStartsBelow(a.label.start, /*strict=*/true,
                                /*one_block=*/false, &scanned,
                                [&](uint32_t n) { return ctx_->CheckpointN(n); });
        stats_->entries_scanned += scanned;
        RefreshHead(r);
      }
      while (!rcursor.AtEnd()) {
        if (ctx_->Checkpoint()) return;
        Label label = rcursor.LabelAt();
        if (label.start > a.label.end) break;
        ++stats_->entries_scanned;
        ++stats_->extended;
        if (mode_ == OutputMode::kDisk) {
          spill_->Append(static_cast<size_t>(r), label);
          // Stay resident only when this node anchors a deeper removed node.
          if (is_anchor_[static_cast<size_t>(r)]) {
            BufferEntry(r, label, rcursor.index());
          }
        } else {
          BufferEntry(r, label, rcursor.index());
        }
        rcursor.Next();
      }
    }
  }

  static constexpr uint64_t kFlushThreshold = 8192;

  const QueryBinding& binding_;
  const SegmentedQuery& sq_;
  const TreePattern& query_;
  storage::BufferPool* pool_;
  tpq::MatchSink* sink_;
  OutputMode mode_;
  HolisticStats* stats_;
  algo::QueryContext default_ctx_;  // ungoverned stand-in when none supplied
  algo::QueryContext* ctx_;
  algo::OutputPass output_;

  std::vector<ListCursor> cursors_;
  std::vector<Label> heads_;
  std::vector<std::vector<Label>> stacks_;
  std::vector<std::vector<FEntry>> buffer_;
  std::vector<uint8_t> has_pointers_;
  std::vector<uint8_t> full_pointers_;
  std::vector<uint8_t> is_anchor_;
  std::vector<uint32_t> max_buffered_end_;
  std::vector<int> removed_slot_;
  std::vector<uint8_t> removed_edge_ad_;
  std::unique_ptr<SpillBuffer> spill_;
  uint64_t buffered_ = 0;
  uint64_t group_candidates_ = 0;
  uint64_t charged_memory_ = 0;
};

ViewJoin::ViewJoin(const QueryBinding* binding, const SegmentedQuery* segmented,
                   storage::BufferPool* pool)
    : binding_(binding), segmented_(segmented), pool_(pool) {}

void ViewJoin::Evaluate(tpq::MatchSink* sink, OutputMode mode,
                        storage::Pager* spill, algo::QueryContext* ctx) {
  stats_ = HolisticStats();
  Impl impl(*binding_, *segmented_, pool_, sink, mode, spill, &stats_, ctx);
  impl.Run();
}

}  // namespace viewjoin::core
