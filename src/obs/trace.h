#ifndef XPTC_OBS_TRACE_H_
#define XPTC_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace xptc {
namespace obs {

/// One node of a query trace: a named span with ordered integer attributes
/// (star rounds, bit-ops, node touches, …), free-form notes (dispatch
/// decisions, cache provenance), and child spans. Built single-threaded on
/// the evaluating thread; read after the trace scope closes.
struct TraceNode {
  std::string name;
  int64_t elapsed_ns = 0;  // 0 unless XPTC_OBS timed the span
  std::vector<std::pair<std::string, int64_t>> attrs;
  std::vector<std::string> notes;
  std::vector<std::unique_ptr<TraceNode>> children;

  /// Accumulates into an existing attr of this key, or appends one.
  void AddAttr(const std::string& key, int64_t delta);
  void SetAttr(const std::string& key, int64_t v);
  const int64_t* FindAttr(const std::string& key) const;
};

/// A per-query trace tree. Tracing is *opt-in per thread*: instrumentation
/// sites all over the engine call `QueryTrace::Current()` (one TLS load)
/// and do nothing when no trace is active, so the fuzzer's millions of
/// cases and the batch engine's steady state pay a predictable branch, not
/// an allocation. Activate with a `QueryTrace::Scope` around the query.
///
/// Not thread-safe: one QueryTrace records one thread's work. (The batch
/// engine's workers each see no active trace unless a worker opens its
/// own scope.)
class QueryTrace {
 public:
  QueryTrace();
  ~QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// Activates `trace` on this thread for its lifetime (RAII, re-entrant:
  /// the previous active trace, if any, is restored on destruction).
  class Scope {
   public:
    explicit Scope(QueryTrace* trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceNode* saved_;
  };

  /// The node new spans attach to on this thread; nullptr → tracing off.
  static TraceNode* Current();
  static bool Active() { return Current() != nullptr; }

  const TraceNode& root() const { return root_; }
  TraceNode& root() { return root_; }

  /// JSON rendering of the tree. `with_times` includes elapsed_ns fields
  /// (excluded by default so golden outputs are deterministic).
  std::string ToJson(bool with_times = false) const;
  /// Indented human-readable rendering (the EXPLAIN trace section).
  std::string ToText(bool with_times = false) const;

 private:
  TraceNode root_;
};

/// RAII span: when a trace is active on this thread, appends a child node
/// under the current one and makes it current; otherwise records nothing.
/// Under XPTC_OBS the span is timed, and if a flame histogram is supplied
/// the elapsed nanoseconds are Observed into it on destruction *even when
/// no trace is active* — that is the flame-scoped timing path (evaluator,
/// compiled engine, batch tasks, all eight oracles).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* flame = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// No-ops when this span is not recording (no active trace).
  void Attr(const char* key, int64_t v);
  void AddAttr(const char* key, int64_t delta);
  void Note(std::string note);
  bool recording() const { return node_ != nullptr; }

 private:
  TraceNode* node_ = nullptr;   // the span's node, nullptr if not recording
  TraceNode* saved_ = nullptr;  // parent to restore as current
  Histogram* flame_ = nullptr;
#if XPTC_OBS
  int64_t start_ns_ = 0;
#endif
};

/// Accumulates `delta` into attribute `key` of the *current* trace node
/// (one TLS load + branch when tracing is off). For instrumentation sites
/// that are too hot or too far from the span object to hold a TraceSpan —
/// per-axis-kernel node touches, per-instruction execution counts.
void TraceAddCount(const char* key, int64_t delta);
/// Appends a note to the current trace node, if any.
void TraceNote(std::string note);

/// Monotonic clock in nanoseconds. Always available (the bench harness
/// uses it); XPTC_OBS only controls whether *span* destructors read it.
int64_t NowNs();

}  // namespace obs
}  // namespace xptc

#endif  // XPTC_OBS_TRACE_H_
