#include "plan/operator.h"

#include <optional>
#include <string>
#include <utility>

#include "algo/inter_join.h"
#include "algo/query_binding.h"
#include "algo/twig_stack.h"
#include "core/segmented_query.h"
#include "core/view_join.h"
#include "util/check.h"

namespace viewjoin::plan {
namespace {

/// Shared base: owns the config, the governance default, and the per-run
/// I/O accounting every concrete operator would otherwise duplicate.
/// Subclasses implement DoOpen/DoEvaluate only.
class OperatorBase : public Operator {
 public:
  explicit OperatorBase(Config config) : config_(std::move(config)) {}

  util::Status Open() final {
    std::string error;
    if (!DoOpen(&error)) {
      // The binder's message is the caller-facing error; wrap it without
      // rewriting so existing error-string contracts survive the refactor.
      return util::Status::InvalidArgument(error);
    }
    open_ = true;
    return util::Status::Ok();
  }

  void Evaluate(tpq::MatchSink* sink, algo::QueryContext* ctx) final {
    VJ_CHECK(open_) << name() << " operator evaluated before Open()";
    algo::QueryContext* gov = ctx != nullptr ? ctx : &ungoverned_;
    // Scope-count this thread's page traffic so the operator can report its
    // own I/O share even when the pool is shared with sibling queries. The
    // document store has its own pool, scoped separately and summed in.
    storage::BufferPool::StatsScope scope(config_.pool);
    storage::BufferPool::StatsScope doc_scope(
        config_.doc_store != nullptr ? config_.doc_store->pool() : nullptr);
    DoEvaluate(sink, gov);
    io_.pool_hits += scope.hits() + doc_scope.hits();
    io_.pool_misses += scope.misses() + doc_scope.misses();
    io_.pages_read += scope.misses() + doc_scope.misses();
    io_.pages_decoded += scope.pages_decoded() + doc_scope.pages_decoded();
  }

  void Close() override { open_ = false; }

 protected:
  /// Binds; returns false with *error set on caller mistakes.
  virtual bool DoOpen(std::string* error) = 0;
  virtual void DoEvaluate(tpq::MatchSink* sink, algo::QueryContext* gov) = 0;

  Config config_;

 private:
  bool open_ = false;
  algo::QueryContext ungoverned_;
};

class TwigStackOperator : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;
  const char* name() const override { return "TS"; }

  bool DoOpen(std::string* error) override {
    binding_ = algo::QueryBinding::Bind(*config_.doc, *config_.query,
                                        config_.views, error);
    return binding_.has_value();
  }

  void DoEvaluate(tpq::MatchSink* sink, algo::QueryContext* gov) override {
    algo::TwigStack twig(&*binding_, config_.pool);
    twig.Evaluate(sink, config_.mode, config_.spill, gov);
    stats_ = twig.stats();
  }

  void Close() override {
    binding_.reset();
    OperatorBase::Close();
  }

 private:
  std::optional<algo::QueryBinding> binding_;
};

class ViewJoinOperator : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;
  const char* name() const override { return "VJ"; }

  bool DoOpen(std::string* error) override {
    binding_ = algo::QueryBinding::Bind(*config_.doc, *config_.query,
                                        config_.views, error);
    if (!binding_.has_value()) return false;
    segmented_ = core::BuildSegmentedQuery(*binding_);
    return true;
  }

  void DoEvaluate(tpq::MatchSink* sink, algo::QueryContext* gov) override {
    core::ViewJoin join(&*binding_, &segmented_, config_.pool);
    join.Evaluate(sink, config_.mode, config_.spill, gov);
    stats_ = join.stats();
  }

  void Close() override {
    binding_.reset();
    OperatorBase::Close();
  }

 private:
  std::optional<algo::QueryBinding> binding_;
  core::SegmentedQuery segmented_;
};

class InterJoinOperator : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;
  const char* name() const override { return "IJ"; }

  bool DoOpen(std::string* error) override {
    join_ = algo::InterJoin::Bind(*config_.doc, *config_.query, config_.views,
                                  config_.pool, error);
    return join_.has_value();
  }

  void DoEvaluate(tpq::MatchSink* sink, algo::QueryContext* gov) override {
    // InterJoin holds all relations in memory; mode/spill do not apply.
    join_->Evaluate(sink, gov);
    stats_ = join_->stats();
  }

  void Close() override {
    join_.reset();
    OperatorBase::Close();
  }

 private:
  std::optional<algo::InterJoin> join_;
};

class BaseFallbackOperator : public OperatorBase {
 public:
  using OperatorBase::OperatorBase;
  const char* name() const override { return "TS-base"; }

  bool DoOpen(std::string* error) override {
    // Disk doc-mode binds the document store's page lists; otherwise the
    // in-memory label vectors serve (and no stored page is ever touched).
    binding_ = config_.doc_store != nullptr
                   ? algo::QueryBinding::BindBase(
                         *config_.doc, *config_.doc_store, *config_.query,
                         error)
                   : algo::QueryBinding::BindBase(*config_.doc, *config_.query,
                                                  error);
    return binding_.has_value();
  }

  void DoEvaluate(tpq::MatchSink* sink, algo::QueryContext* gov) override {
    algo::TwigStack twig(&*binding_, config_.pool);
    // Memory mode with no spill: the fallback must not touch the (possibly
    // faulting) spill spool either.
    twig.Evaluate(sink, algo::OutputMode::kMemory, nullptr, gov);
    stats_ = twig.stats();
  }

  void Close() override {
    binding_.reset();
    OperatorBase::Close();
  }

 private:
  std::optional<algo::QueryBinding> binding_;
};

}  // namespace

std::unique_ptr<Operator> MakeOperator(Algorithm algorithm,
                                       const Operator::Config& config) {
  switch (algorithm) {
    case Algorithm::kTwigStack:
      return std::make_unique<TwigStackOperator>(config);
    case Algorithm::kViewJoin:
      return std::make_unique<ViewJoinOperator>(config);
    case Algorithm::kInterJoin:
      return std::make_unique<InterJoinOperator>(config);
    case Algorithm::kAuto:
      break;
  }
  VJ_CHECK(false) << "kAuto must be resolved by the planner before execution";
  return nullptr;
}

std::unique_ptr<Operator> MakeBaseFallbackOperator(
    const xml::Document& doc, const tpq::TreePattern& query,
    storage::BufferPool* pool, const storage::DocumentStore* doc_store) {
  Operator::Config config;
  config.doc = &doc;
  config.query = &query;
  config.pool = pool;
  config.doc_store = doc_store;
  return std::make_unique<BaseFallbackOperator>(config);
}

}  // namespace viewjoin::plan
