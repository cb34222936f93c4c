#include "algo/twig_stack.h"

#include <memory>

#include "algo/output_pass.h"
#include "algo/spill_buffer.h"
#include "util/check.h"

namespace viewjoin::algo {

using storage::ListCursor;
using tpq::TreePattern;
using xml::Label;

namespace {

/// Sentinel head label for exhausted streams.
constexpr Label kEndLabel{0xFFFFFFFFu, 0xFFFFFFFFu, 0};

}  // namespace

class TwigStack::Impl {
 public:
  Impl(const QueryBinding& binding, storage::BufferPool* pool,
       tpq::MatchSink* sink, OutputMode mode, storage::Pager* spill,
       HolisticStats* stats, QueryContext* ctx)
      : binding_(binding),
        query_(binding.query()),
        sink_(sink),
        mode_(mode),
        stats_(stats),
        ctx_(ctx != nullptr ? ctx : &default_ctx_),
        output_(binding, /*pushes_proven=*/true) {
    size_t nq = query_.size();
    cursors_.resize(nq);
    stacks_.resize(nq);
    candidates_.resize(nq);
    max_buffered_end_.assign(nq, 0);
    heads_.resize(nq);
    for (size_t q = 0; q < nq; ++q) {
      const NodeBinding& nb = binding.binding(static_cast<int>(q));
      // Base bindings stream the document's own tag lists from memory,
      // except when the binding carries its own pool — then the list is a
      // document-store page list served by that pool (out-of-core path).
      cursors_[q] = nb.list != nullptr
                        ? ListCursor(nb.list,
                                     nb.pool != nullptr ? nb.pool : pool)
                        : ListCursor(nb.labels->data(),
                                     static_cast<uint32_t>(nb.labels->size()));
      RefreshHead(static_cast<int>(q));
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
      int parent = query_.node(q).parent;
      if (parent >= 0) CleanStack(parent, nq);
      if (parent < 0 || !stacks_[static_cast<size_t>(parent)].empty()) {
        CleanStack(q, nq);
        // Memory mode buffers the entire solution (the paper's memory-based
        // approach); disk mode flushes closed groups once enough labels have
        // been spilled, bounding resident memory.
        if (q == 0 && stacks_[0].empty() && mode_ == OutputMode::kDisk &&
            buffered_ >= kFlushThreshold && CanFlush()) {
          Flush();
        }
        Push(q, nq);
      }
      Advance(q);
    }
    Drain();
    Flush();
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

  /// Classic TwigStack getNext: returns the query node whose current head is
  /// guaranteed to have a subtree extension (treating pc-edges as ad).
  int GetNext(int q) {
    const tpq::PatternNode& pn = query_.node(q);
    if (pn.children.empty()) return q;
    int qmin = -1;
    int qmax = -1;
    for (int c : pn.children) {
      int n = GetNext(c);
      if (n != c) return n;
      Label head = Head(c);
      if (qmin < 0 || head.start < Head(qmin).start) qmin = c;
      if (qmax < 0 || head.start > Head(qmax).start) qmax = c;
    }
    uint32_t max_start = Head(qmax).start;
    if (Head(q).end < max_start) {
      // Skip entries whose region closed before the children's furthest
      // head — a forward scan, SIMD across decoded blocks.
      uint64_t scanned = 0;
      cursors_[static_cast<size_t>(q)].SkipEndsBelow(
          max_start, /*one_block=*/false, &scanned,
          [&](uint32_t n) { return ctx_->CheckpointN(n); });
      stats_->entries_scanned += scanned;
      RefreshHead(q);
    }
    if (Head(q).start < Head(qmin).start) return q;
    return qmin;
  }

  void CleanStack(int q, const Label& next) {
    auto& stack = stacks_[static_cast<size_t>(q)];
    while (!stack.empty() && stack.back().end < next.start) stack.pop_back();
  }

  void Push(int q, const Label& label) {
    stacks_[static_cast<size_t>(q)].push_back(label);
    Buffer(q, label);
  }

  void Buffer(int q, const Label& label) {
    ++stats_->candidates;
    ++buffered_;
    if (buffered_ > stats_->peak_buffered) stats_->peak_buffered = buffered_;
    if (label.end > max_buffered_end_[static_cast<size_t>(q)]) {
      max_buffered_end_[static_cast<size_t>(q)] = label.end;
    }
    if (mode_ == OutputMode::kDisk) {
      spill_->Append(static_cast<size_t>(q), label);
    } else {
      candidates_[static_cast<size_t>(q)].push_back(label);
      charged_memory_ += sizeof(Label);
      ctx_->ChargeMemory(sizeof(Label));
    }
  }

  /// A group flush is safe only once every buffered candidate's region is
  /// closed relative to every pending stream head: candidates are not
  /// necessarily buffered in global document order (a blocked branch can lag
  /// behind), so an open region could still acquire partners.
  bool CanFlush() {
    uint32_t max_end = 0;
    for (uint32_t end : max_buffered_end_) {
      if (end > max_end) max_end = end;
    }
    for (size_t q = 0; q < query_.size(); ++q) {
      Label head = Head(static_cast<int>(q));
      if (head.start != kEndLabel.start && head.start < max_end) return false;
    }
    return true;
  }

  /// Termination drain: when a stream exhausts, getNext stops returning
  /// useful nodes, but other lists may hold entries that join with already
  /// buffered ancestors (classic TwigStack emits those path solutions from
  /// live stacks; our deferred enumeration must buffer the entries instead).
  /// An entry can only matter if it starts inside a buffered region of its
  /// parent, so each list drains up to its parent's max buffered end.
  void Drain() {
    for (size_t q = 0; q < query_.size(); ++q) {
      int parent = query_.node(static_cast<int>(q)).parent;
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
        Buffer(static_cast<int>(q), cursor.LabelAt());
        output_.MarkUnproven(q);
        ++stats_->drained;
        cursor.Next();
      }
    }
  }

  /// Enumerates and clears everything collected so far. Safe whenever the
  /// root stack is empty: every buffered candidate then lies under a closed
  /// root and can join only with other buffered candidates.
  ///
  /// With only ad-edges (the root's included) every pushed candidate has a
  /// solution extension below a stacked ancestor chain (Bruno et al.'s
  /// optimality result), so it lies in a match built from this flush's
  /// candidates alone: every node is proven and the flush skips the
  /// semi-join filter. Drained entries carry no such proof, so Drain()
  /// leaves the nodes it buffered into unproven, and the filter checks
  /// those alone.
  void Flush() {
    // An aborted run's candidates are never resolved or enumerated (their
    // partial output would be discarded anyway); the buffers die with Impl.
    if (ctx_->aborted()) return;
    for (size_t q = 0; q < query_.size(); ++q) {
      std::vector<Label> labels =
          mode_ == OutputMode::kDisk ? spill_->Drain(q)
                                     : std::move(candidates_[q]);
      candidates_[q].clear();
      if (!output_.Resolve(q, labels, ctx_)) return;
    }
    if (mode_ == OutputMode::kDisk) {
      stats_->spill_pages_written = spill_->pages_written();
      stats_->spill_pages_read = spill_->pages_read();
    }
    buffered_ = 0;
    std::fill(max_buffered_end_.begin(), max_buffered_end_.end(), 0);
    // The flushed candidates are freed; return their budget charge.
    ctx_->ReleaseMemory(charged_memory_);
    charged_memory_ = 0;
    output_.Enumerate(sink_, ctx_, stats_);
  }

  static constexpr uint64_t kFlushThreshold = 8192;

  const QueryBinding& binding_;
  const TreePattern& query_;
  tpq::MatchSink* sink_;
  OutputMode mode_;
  HolisticStats* stats_;
  QueryContext default_ctx_;  // ungoverned stand-in when the caller passes none
  QueryContext* ctx_;
  OutputPass output_;
  std::vector<ListCursor> cursors_;
  std::vector<Label> heads_;
  std::vector<std::vector<Label>> stacks_;
  std::vector<std::vector<Label>> candidates_;
  std::vector<uint32_t> max_buffered_end_;
  std::unique_ptr<SpillBuffer> spill_;
  uint64_t buffered_ = 0;
  uint64_t charged_memory_ = 0;
};

TwigStack::TwigStack(const QueryBinding* binding, storage::BufferPool* pool)
    : binding_(binding), pool_(pool) {}

void TwigStack::Evaluate(tpq::MatchSink* sink, OutputMode mode,
                         storage::Pager* spill, QueryContext* ctx) {
  stats_ = HolisticStats();
  Impl impl(*binding_, pool_, sink, mode, spill, &stats_, ctx);
  impl.Run();
}

}  // namespace viewjoin::algo
