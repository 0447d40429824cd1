#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/simd.h"
#include "perfbench.h"
#include "testing/corpus.h"

namespace xptc {
namespace perfbench {

namespace {

int64_t ReadClockNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    std::fprintf(stderr, "FATAL: clock_gettime on a CPU clock failed\n");
    std::exit(1);
  }
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return ReadClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t ProcessCpuNs() { return ReadClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(i, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

SegmentStats Summarize(const std::vector<Sample>& samples, int64_t start_ns,
                       int64_t end_ns) {
  std::vector<double> us;
  for (const Sample& s : samples) us.push_back(s.latency_us);
  const double seconds = static_cast<double>(end_ns - start_ns) * 1e-9;
  return {seconds > 0 ? static_cast<double>(samples.size()) / seconds : 0,
          Quantile(us, 0.5), Quantile(us, 0.9)};
}

SegmentStats Best(const std::vector<SegmentStats>& parts) {
  std::vector<double> qps, p50, p90;
  for (const SegmentStats& p : parts) {
    qps.push_back(p.qps);
    p50.push_back(p.p50_us);
    p90.push_back(p.p90_us);
  }
  return {Quantile(qps, 1), Quantile(p50, 0), Quantile(p90, 0)};
}

std::vector<SegmentStats> SplitWindows(const std::vector<Sample>& samples,
                                       int64_t start_ns, int64_t end_ns, int n) {
  const int64_t width = (end_ns - start_ns) / n;
  std::vector<std::vector<Sample>> windows(static_cast<size_t>(n));
  for (const Sample& s : samples) {
    const int64_t w = width > 0 ? (s.at_ns - start_ns) / width : 0;
    windows[static_cast<size_t>(std::clamp<int64_t>(w, 0, n - 1))].push_back(s);
  }
  std::vector<SegmentStats> parts;
  for (int w = 0; w < n; ++w) {
    parts.push_back(Summarize(windows[static_cast<size_t>(w)], start_ns + w * width,
                              start_ns + (w + 1) * width));
  }
  return parts;
}

namespace {

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, "{\"value\": " + JsonNumber(value) +
                                  ", \"unit\": " + JsonString(unit) + "}");
}

void Result::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Result::Info(const std::string& key, double value) {
  info_.emplace_back(key, JsonNumber(value));
}

void Result::Print(bool correct) const {
  std::string context = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) context += ", ";
    context += JsonString(info_[i].first) + ": " + info_[i].second;
  }
  std::printf("%s}\n", context.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics_[i].first) + ": " + metrics_[i].second;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

std::string HostJson(const std::string& layout) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": " << JsonString(simd::LevelName(simd::ActiveLevel()))
#ifdef NDEBUG
      << ", \"build\": \"optimized (NDEBUG)\""
#else
      << ", \"build\": \"debug\""
#endif
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"layout\": " << JsonString(layout) << "}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu c;
  int64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    c.total += value;
    if (i == 7) c.steal = value;
  }
  return c;
}

double StealFrac(const HostCpu& begin, const HostCpu& end) {
  const int64_t total = end.total - begin.total;
  return total > 0 ? static_cast<double>(end.steal - begin.steal) / static_cast<double>(total) : 0;
}

Tree MakeTree(Alphabet* alphabet, int nodes, TreeShape shape, uint64_t seed) {
  return bench::BenchTree(alphabet, nodes, shape, seed, /*num_labels=*/3);
}

std::string TreeXml(const Tree& tree, const Alphabet& alphabet) {
  // The iterative writer: WriteXml recurses once per level, which a deep
  // caterpillar tree would overflow.
  return testing::CompactXml(tree, alphabet);
}

void CheckAnswer(const Bitset& got, const Bitset& expected, const Tree& tree,
                 const Alphabet& alphabet, const std::string& query_text,
                 const std::string& where) {
  if (got == expected) return;
  const std::string path = bench::DumpMismatchCase(
      tree, alphabet, query_text, "perfbench mismatch: " + where);
  std::fprintf(stderr,
               "FATAL: answer mismatch (%s) for query %s: %d nodes, oracle "
               "%d; case written to %s\n",
               where.c_str(), query_text.c_str(), got.Count(),
               expected.Count(), path.empty() ? "(write failed)" : path.c_str());
  std::exit(3);
}

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t AnswerHash(uint64_t key, const Bitset& bits) {
  uint64_t h = Mix(key);
  const uint64_t* words = bits.words();
  for (size_t i = 0; i < bits.word_count(); ++i) {
    h = Mix(h ^ words[i]);
  }
  return Mix(h ^ static_cast<uint64_t>(bits.size()));
}

// Layer of each span name: the module the timed call belongs to.
const char* const kSpanNames[] = {
    // library path (lib_core_large)
    "workload.plan_cache",  // PlanCache::ParseCompiled
    "exec.engine",          // exec::ExecEngine::Eval
    // wire path, client side (the benchmark's own load generator)
    "protocol.client_encode",  // EncodeQueryPayload + EncodeFrame
    "transport.in",            // send → the server sees the first byte
    "transport.out",           // last byte flushed → the client has it
    "protocol.client_decode",  // DecodeFrame + DecodeResponseFrame
    // wire path, server side (flight-recorder phases of the request)
    "server.accept",   // bytes readable → parse start (reactor)
    "server.parse",    // DecodeFrame + TranslateFrame (protocol)
    "server.queue",    // admission push → worker pop
    "server.exec",     // QueryService::Handle (service → workload → exec)
    "server.encode",   // EncodeResponseFrame (protocol)
    "server.handoff",  // worker → reactor completion hand-off
    "server.flush",    // response queued → last byte written
};
const int kNumSpanNames = sizeof(kSpanNames) / sizeof(kSpanNames[0]);

void SpanTotals::Add(const SpanTotals& other) {
  for (const auto& [name, ns] : other.self_ns) self_ns[name] += ns;
  attributed_ns += other.attributed_ns;
  requests += other.requests;
}

SpanTotals SumSpans(const std::vector<const SpanLog*>& logs) {
  SpanTotals totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        ++totals.requests;
        continue;
      }
      const double self = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
      totals.self_ns[s.name] += self;
      totals.attributed_ns += self;
    }
  }
  return totals;
}

double CoverageRatio(const SpanTotals& traced, double untraced_mean_us) {
  if (traced.requests == 0 || untraced_mean_us <= 0) return 0;
  return traced.attributed_ns / static_cast<double>(traced.requests) / 1e3 /
         untraced_mean_us;
}

void ReportSpans(const SpanTotals& totals, double coverage, Result* result) {
  const double requests = std::max<int64_t>(totals.requests, 1);
  for (int i = 0; i < kNumSpanNames; ++i) {
    const auto it = totals.self_ns.find(kSpanNames[i]);
    const double ns = it == totals.self_ns.end() ? 0 : it->second;
    result->Metric(std::string("span.") + kSpanNames[i] + ".self_us",
                   ns / requests / 1e3, "us");
  }
  result->Metric("trace.coverage", coverage, "ratio");
  result->Metric("trace.sum_check_ok",
                 std::abs(coverage - 1.0) <= kCoverageTolerance ? 1 : 0,
                 "bool");
}

}  // namespace perfbench
}  // namespace xptc
