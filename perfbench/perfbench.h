// Shared pieces of the repository benchmark (see BENCHMARK.json): the
// result line, statistics, the span recorder of traced runs, the answer
// oracle, and the per-layer probes every workload's traced run reports.
#ifndef XPTC_PERFBENCH_PERFBENCH_H_
#define XPTC_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/bitset.h"
#include "tree/generate.h"
#include "tree/tree.h"
#include "xpath/engine.h"

namespace xptc {
namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by the calling thread, or by this process, in
/// ns. The kernel accounts time the hypervisor gave to other guests
/// (steal) to no task, and time another thread held the CPU to that
/// thread, so these clocks read the work a program did and not the share
/// of the host it was given.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// One completed request: when it finished (or, in an open loop, when it
/// was due) and its latency.
struct Sample {
  int64_t at_ns = 0;
  double latency_us = 0;
};
struct SegmentStats {
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
};
/// Completions per second, p50 and p90 of the samples of [start_ns, end_ns).
SegmentStats Summarize(const std::vector<Sample>& samples, int64_t start_ns,
                       int64_t end_ns);
/// Each figure at its best over the parts: the highest completions per
/// second, the lowest p50 and p90.
SegmentStats Best(const std::vector<SegmentStats>& parts);
/// Summarize over each of `n` equal windows of [start_ns, end_ns).
std::vector<SegmentStats> SplitWindows(const std::vector<Sample>& samples,
                                       int64_t start_ns, int64_t end_ns, int n);

/// One benchmark run's outcome: the fields of the final JSON line plus the
/// context line printed before it (host fingerprint, seed, sizes).
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& json_value);
  void Info(const std::string& key, double value);
  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Prints the context line and, last, the result line on stdout.
  void Print(bool correct) const;

 private:
  std::vector<std::pair<std::string, std::string>> metrics_;  // name → json
  std::vector<std::pair<std::string, std::string>> info_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Host fingerprint: nproc, SIMD level, build type, compiler and the given
/// process/thread layout, as a JSON object.
std::string HostJson(const std::string& layout);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// The host's CPU time counters (/proc/stat, all CPUs): total and the part
/// the hypervisor gave to other guests. A run reports the stolen share of
/// its timed phases, which slows every timed figure of that run.
struct HostCpu {
  int64_t total = 0;
  int64_t steal = 0;
};
HostCpu ReadHostCpu();
double StealFrac(const HostCpu& begin, const HostCpu& end);

/// Deterministic inputs. Labels are a, b, c everywhere.
Tree MakeTree(Alphabet* alphabet, int nodes, TreeShape shape, uint64_t seed);
std::string TreeXml(const Tree& tree, const Alphabet& alphabet);

/// Compares a timed answer with the oracle's. On a mismatch writes a
/// replayable `.case` file and exits non-zero; no result line is printed.
void CheckAnswer(const Bitset& got, const Bitset& expected, const Tree& tree,
                 const Alphabet& alphabet, const std::string& query_text,
                 const std::string& where);

/// Order-independent digest of (key, answer) pairs, so a traced and an
/// untraced run can be compared for identical answers.
uint64_t AnswerHash(uint64_t key, const Bitset& bits);

// ---------------------------------------------------------------------------
// Spans of traced runs. Each thread records into its own SpanLog; spans of
// one request share `request`. A span's self time is its duration minus the
// time its children cover.
// ---------------------------------------------------------------------------
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index in the same log, -1 for a root
  uint64_t request = 0;
};

class SpanLog {
 public:
  int Begin(const char* name, uint64_t request, int parent) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Reserve(size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer self time over every log.
struct SpanTotals {
  std::map<std::string, double> self_ns;  // by span name (roots excluded)
  double attributed_ns = 0;               // Σ self time of every non-root span
  int64_t requests = 0;                   // requests traced
  void Add(const SpanTotals& other);
};
/// Sums the logs; every root span is one request.
SpanTotals SumSpans(const std::vector<const SpanLog*>& logs);

/// Every span name any workload records, so each traced run reports the
/// same metric set. Layers: tree, xpath, exec, workload, server, simd, obs.
extern const char* const kSpanNames[];
extern const int kNumSpanNames;

/// The sum check. A traced run interleaves the same calls with and
/// without spans, so that both see the same host; each interleaved part
/// gives Σ layer self time per traced request over the mean end-to-end
/// latency of the untraced requests, which the caller times alone. A
/// request whose spans are missing adds no self time, so it lowers the
/// ratio. trace.coverage is the median over parts and must lie within
/// 1 ± kCoverageTolerance.
constexpr double kCoverageTolerance = 0.10;
double CoverageRatio(const SpanTotals& traced, double untraced_mean_us);

/// Emits `span.<name>.self_us` (mean per request) for every span name,
/// `trace.coverage` and the sum check verdict `trace.sum_check_ok`.
void ReportSpans(const SpanTotals& totals, double coverage, Result* result);

/// The exec.ns_per_node family of a query as written: "downward" (Core
/// XPath over the downward axes only), "core" (the rest of Core XPath),
/// "star" (every star body one bare axis, as in "(child)*"),
/// "filtered_star" (any other star body, as in "(child[a])*" or
/// "(child/child)*"), or nullptr for W-bearing queries.
const char* ExecFamily(const Query& query, const std::string& text);
extern const char* const kFamilies[4];
int FamilyIndex(const char* family);

// ---------------------------------------------------------------------------
// Per-layer probes, timed around single public calls outside the workload
// loop. Each emits the per_layer metrics named in its comment.
// ---------------------------------------------------------------------------

/// One request of a workload's mix: a query text on some trees (empty =
/// the whole corpus).
struct ServiceCall {
  std::string text;
  std::vector<int> tree_ids;
};

/// tree.xml_parse_ns_per_node, tree_cache.build_ms, axis.calibrate_ms.
void ProbeSetup(const std::vector<std::string>& xmls, Result* result);
/// plan.parse_us, plan.lower_us, plan.superopt_us, plan.instrs.
void ProbePlan(const std::vector<std::string>& texts, Alphabet* alphabet,
               Result* result);
/// axis.<axis>.ns_per_node over the trees, label-set sources.
void ProbeAxes(const std::vector<std::shared_ptr<const Tree>>& trees,
               Alphabet* alphabet, Result* result);
/// simd.<kernel>.ns_per_kword on n-bit operands.
void ProbeSimd(int n, Result* result);
/// protocol.decode_us (request), protocol.encode_us (an n-bit answer).
void ProbeProtocol(const std::string& text, int tree_nodes, Result* result);
/// exec.shape_ratio.{core,downward}: ns/node at 1M over ns/node at 64k.
void ProbeShape(uint64_t seed, Result* result);
/// batch.fanout_us, batch.efficiency (2-worker BatchEngine).
void ProbeBatch(const std::vector<std::shared_ptr<const Tree>>& trees,
                const std::vector<std::string>& texts, Alphabet* alphabet,
                Result* result);
/// service.handle_p50_us, service.handle_p90_us, after one untimed pass
/// over the calls; returns the p50.
double ProbeService(const std::vector<std::string>& xmls,
                    const std::vector<ServiceCall>& calls, Result* result);
/// Replays the calls in process on fresh tree caches: exec.within_cold_ms,
/// tree_cache.within_entries and, with `report_exec`, the exec.* metrics.
void ProbeReplay(const std::vector<std::shared_ptr<const Tree>>& trees,
                 const std::vector<ServiceCall>& calls, Alphabet* alphabet,
                 bool report_exec, Result* result);

// ---------------------------------------------------------------------------
// Workloads. Each fills `result` and returns 0, or exits non-zero.
// ---------------------------------------------------------------------------
int RunLibCoreLarge(const Options& opt, Result* result);
int RunWire(const Options& opt, Result* result);
/// The wire workload's server process (this binary run with --serve).
int ServeMain();

}  // namespace perfbench
}  // namespace xptc

#endif  // XPTC_PERFBENCH_PERFBENCH_H_
