// The wire workload, wire_small_hot: the binary protocol to a query server
// in a separate process, driven by this process over kConns loopback
// connections.
//
// Layout: the server runs in a child process (this binary re-executed with
// --serve) with 2 workers plus its reactor; this process drives it with
// one thread per connection, at most nproc of them. Measured on a 4-core
// host, one process holding the server, hw workers and 4 client threads
// gave a p99 anywhere from 0.32 to 4.5 ms over three runs; the separate
// 2-worker server driven by 4 connections was steadier, and 2 connections
// left cores idle so that wake-up latency dominated.
//
// Corpus and mix: 64 uniform trees of 1k nodes, a fixed 24-text
// mix sent over and over (every plan a cache hit, every W body a memo hit
// after the first round); one request in 8 targets the whole corpus and
// fans out through BatchEngine::RunCompiledOnTrees. Execution takes
// microseconds, so the time goes to protocol, reactor, admission, queue
// hand-off, plan-cache hits and batch fan-out.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/service.h"
#include "tree/xml.h"
#include "xpath/engine.h"

namespace xptc {
namespace perfbench {
namespace {

using server::EvalMode;
using server::Frame;
using server::FrameType;
using server::ParseStatus;
using server::RespCode;
using server::ServiceResponse;

constexpr int kConns = 4;

// The host shares its cores with other guests: the hypervisor takes CPU
// away in bursts (steal reached ~15-25% of all CPU time in some runs),
// and a busy neighbour on the same physical core slows whatever runs
// there by 20% to 2x, in phases of seconds to minutes. The wire keeps all
// 4 vCPUs busy with threads that wake one another, so every figure of a
// run moves with the host. Each figure therefore reads the run at its
// least disturbed requests; a slower program makes all of them slower.
//
// floor_qps takes each request kind at the kFloorQuantile-th of its
// closed-loop latencies (see FloorQps). Five 45 s runs before the client
// spun (kSpinNs), seeds 51-55: 43.5k to 47.5k, where the best closed-loop
// window read 24.7k-29.1k and the whole-run throughput 20.3k-23.5k; with
// the kinds at their median latency, 30.1k-32.8k. Requests per CPU second
// of client and server together moved with the host as much as wall
// throughput did (spread 0.235 over five runs with steal from 0.4% to
// 14%).
constexpr double kFloorQuantile = 0.1;
// p50_us is the lowest p50 of the fixed-rate windows: each round's
// fixed-rate phase is cut into kWindowsPerRound windows. Spread over seeds
// (interquartile range over median) of the p50 with 25 rounds: median
// round 1.35 (ten seeds), upper quartile round 0.19 (ten), best round
// 0.046 (five). Five 45 s runs, seeds 51-55: best of 100 windows 114.7 to
// 121.7 us.
constexpr int kWindowsPerRound = 4;
// A closed-loop client polls its connection for up to kSpinNs after each
// send (yielding the CPU between polls) before it blocks. Blocking halts
// an idle vCPU, and waking a halted vCPU waits for the host to schedule
// it, which on a busy host adds tens of microseconds to a ~100 us round
// trip and reads as steal. Eight runs alternating with and without
// spinning (seeds 121-124): floor_qps 50.6k-55.6k with, 41.8k-45.8k
// without; whole-run throughput 21.6k-23.7k with, 16.7k-22.9k without.
// Six more runs with spinning, three of them with steal of 7-13%:
// floor_qps 47.6k-51.9k.
constexpr int64_t kSpinNs = 200'000;
constexpr int kServerWorkers = 2;
// setup_s is the median CPU time of 2 x kSetupReps set-ups in the server
// process (with its reactor and worker threads): half before the timed
// phases and half after them, so that it samples the host at both ends of
// the run.
constexpr int kSetupReps = 15;
constexpr int kTrees = 64, kTreeNodes = 1 << 10;
// Open loop at a fixed offered rate (total over all connections), and the
// traced run's second rate.
constexpr double kRate = 8000, kRate2 = 16000;
// diag.max_rate_qps: absolute offered rates, climbed until a rung's p90
// exceeds the limit or the generator's lateness grows.
constexpr double kLadder[] = {4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000};
constexpr double kLadderP90LimitUs = 1000;
// The closed loop (kClosedShare of --seconds) and the fixed rate
// (kRateShare) alternate in kRounds rounds.
constexpr double kClosedShare = 0.4, kRateShare = 0.6;
constexpr int kRounds = 25;

// wire_small_hot: exp11's serving mix (duplicates, shared W bodies, cheap
// label tests next to W-heavy queries).
const char* const kTexts[] = {
    "<child[a]>",
    "<desc[b]>",
    "<desc[a]/foll[b]>",
    "<child[a]/desc[b]/anc[c]>",
    "not <anc/desc[a]> and <dos[b]>",
    "W(<desc[a]/foll[b]>)",
    "W(<desc[a]/foll[b]>)",
    "W(<desc[b and <right[a]>]>)",
    "W(<foll[a]>) and <child[b]>",
    "W(<desc[a]/foll[b]>) or W(<desc[b and <right[a]>]>)",
    "<desc[a]>",
    "<desc[a]> and <desc[b]>",
    "a and <child[b]>",
    "b or c",
    "<(child)*[a]>",
    "<(child/child)*[b]>",
    "<desc[W(<desc[c]/foll[a]>)]>",
    "W(<desc[c]/foll[a]>)",
    "<anc[a]>",
    "<foll[b]> or <child[c]>",
    "W(<desc[b]/foll[a]>) and W(<desc[c]/foll[a]>)",
    "<dos[a and <right[b]>]>",
    "W(<desc[a]>)",
    "<child[a]/desc[b]/anc[c]>",
};
constexpr int kNumTexts = sizeof(kTexts) / sizeof(kTexts[0]);

// ---------------------------------------------------------------------------
// Inputs and the oracle.
// ---------------------------------------------------------------------------
struct Inputs {
  std::vector<std::string> xmls;
  // The oracle's copy: the same XML parsed here, evaluated by Query::Select.
  std::unique_ptr<Alphabet> alphabet = std::make_unique<Alphabet>();
  std::vector<std::shared_ptr<const Tree>> trees;
  std::vector<std::string> texts;
  std::vector<std::vector<Bitset>> oracle;  // [text][tree]
};

void MakeInputs(uint64_t seed, Inputs* in) {
  {
    Alphabet gen;
    for (int i = 0; i < kTrees; ++i) {
      in->xmls.push_back(TreeXml(MakeTree(&gen, kTreeNodes, TreeShape::kUniformRecursive, seed * 64 + i), gen));
    }
  }
  for (const std::string& xml : in->xmls) {
    in->trees.push_back(std::make_shared<const Tree>(ParseXml(xml, in->alphabet.get()).ValueOrDie()));
  }
  for (const char* text : kTexts) {
    Query query = Query::Parse(text, in->alphabet.get()).ValueOrDie();
    std::vector<Bitset> row;
    for (const auto& tree : in->trees) row.push_back(query.Select(*tree));
    in->oracle.push_back(std::move(row));
    in->texts.push_back(text);
  }
}

// ---------------------------------------------------------------------------
// The server process: this binary with --serve. Reads the corpus from
// stdin, sets up kSetupReps times, then answers line commands on stdin
// with one line on stdout each. On "stop" it shuts the server down, sets
// up kSetupReps more times, and reports its peak RSS, the median set-up
// time and the trace records.
// ---------------------------------------------------------------------------

struct TraceRecord {
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t total_ns = 0;
  int64_t phase_ns[obs::kNumPhases] = {};
};

int64_t Counter(const obs::Snapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

struct Served {
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::QueryServer> server;
  void Reset() {
    server.reset();
    service.reset();
  }
};

// The program's set-up: the corpus into a 2-worker service, then the
// server started. Appends its time to `setup_s`.
void SetUpServer(const std::vector<std::string>& xmls, Served* served,
                 std::vector<double>* setup_s) {
  served->Reset();
  const int64_t t0 = ProcessCpuNs();
  server::ServiceOptions options;
  options.num_workers = kServerWorkers;
  served->service = std::make_unique<server::QueryService>(options);
  for (const std::string& xml : xmls) {
    auto id = served->service->AddTreeXml(xml);
    if (!id.ok()) {
      std::fprintf(stderr, "FATAL: AddTreeXml: %s\n", id.status().ToString().c_str());
      std::exit(1);
    }
  }
  served->server = std::make_unique<server::QueryServer>(served->service.get());
  const Status started = served->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "FATAL: server start: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  setup_s->push_back(static_cast<double>(ProcessCpuNs() - t0) * 1e-9);
}

}  // namespace

int ServeMain() {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<std::string> xmls;
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    size_t bytes = 0;
    if (std::sscanf(line, "xml %zu", &bytes) != 1) break;
    std::string xml(bytes, '\0');
    if (std::fread(xml.data(), 1, bytes, stdin) != bytes) return 1;
    xmls.push_back(std::move(xml));
  }
  Served served;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) SetUpServer(xmls, &served, &setup_s);
  std::printf("ready %u\n", served.server->port());
  std::fflush(stdout);

  std::mutex mu;
  std::vector<TraceRecord> records;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Get();
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    const std::string cmd(line);
    if (cmd == "counters\n") {
      const obs::Snapshot snap = obs::Registry::Default().Collect();
      std::printf("counters %lld %lld %lld %lld\n",
                  static_cast<long long>(Counter(snap, "server.shed")),
                  static_cast<long long>(Counter(snap, "server.deadline_exceeded")),
                  static_cast<long long>(Counter(snap, "plan_cache.hits")),
                  static_cast<long long>(Counter(snap, "plan_cache.misses")));
    } else if (cmd == "trace\n") {
      recorder.SetSampleEveryN(1);
      recorder.SetCompletionLog([&](const obs::RequestTrace& trace) {
        TraceRecord r;
        r.id = trace.id;
        r.start_ns = trace.start_ns;
        r.total_ns = trace.total_ns;
        std::copy(trace.phase_ns, trace.phase_ns + obs::kNumPhases, r.phase_ns);
        std::lock_guard<std::mutex> lock(mu);
        records.push_back(r);
      });
      std::printf("ok\n");
    } else if (cmd == "stop\n") {
      break;
    } else {
      std::printf("error unknown command\n");
    }
    std::fflush(stdout);
  }
  served.server->Shutdown();
  recorder.SetCompletionLog(nullptr);
  const double rss_mb = PeakRssMb();
  served.Reset();
  for (int rep = 0; rep < kSetupReps; ++rep) SetUpServer(xmls, &served, &setup_s);
  served.server->Shutdown();
  std::printf("rss %.6f setup %.9f\n", rss_mb, Quantile(setup_s, 0.5));
  for (const TraceRecord& r : records) {
    std::printf("t %llu %lld %lld", static_cast<unsigned long long>(r.id),
                static_cast<long long>(r.start_ns), static_cast<long long>(r.total_ns));
    for (int64_t p : r.phase_ns) std::printf(" %lld", static_cast<long long>(p));
    std::printf("\n");
  }
  std::printf("end\n");
  std::fflush(stdout);
  // The servers are shut down; skip the remaining destructors.
  std::_Exit(0);
}

namespace {

// The running server process. One per run; std::exit (a failed check)
// skips destructors, so an exit handler stops and reaps it too.
pid_t g_server_pid = -1;

void KillServerAtExit() {
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
    g_server_pid = -1;
  }
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    KillServerAtExit();
    if (to_ != nullptr) std::fclose(to_);
    if (from_ != nullptr) std::fclose(from_);
  }

  void Start(const std::vector<std::string>& xmls) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) Die("pipe");
    g_server_pid = fork();
    if (g_server_pid < 0) Die("fork");
    if (g_server_pid == 0) {
      dup2(in_pipe[0], 0);
      dup2(out_pipe[1], 1);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      char self[] = "/proc/self/exe";
      char serve[] = "--serve";
      char* argv[] = {self, serve, nullptr};
      execv(self, argv);
      _exit(127);
    }
    std::atexit(KillServerAtExit);
    close(in_pipe[0]);
    close(out_pipe[1]);
    to_ = fdopen(in_pipe[1], "w");
    from_ = fdopen(out_pipe[0], "r");
    for (const std::string& xml : xmls) {
      std::fprintf(to_, "xml %zu\n", xml.size());
      std::fwrite(xml.data(), 1, xml.size(), to_);
    }
    std::fprintf(to_, "go\n");
    std::fflush(to_);
    const std::string ready = ReadLine();
    unsigned port = 0;
    if (std::sscanf(ready.c_str(), "ready %u", &port) != 1) {
      Die("server child did not start");
    }
    port_ = static_cast<uint16_t>(port);
  }

  std::string Command(const std::string& cmd) {
    std::fprintf(to_, "%s\n", cmd.c_str());
    std::fflush(to_);
    return ReadLine();
  }

  struct Counters {
    int64_t shed = 0, deadline = 0, plan_hits = 0, plan_misses = 0;
  };
  Counters ReadCounters() {
    Counters c;
    long long a = 0, b = 0, h = 0, m = 0;
    if (std::sscanf(Command("counters").c_str(), "counters %lld %lld %lld %lld", &a, &b, &h, &m) != 4) {
      Die("bad counters reply");
    }
    c.shed = a;
    c.deadline = b;
    c.plan_hits = h;
    c.plan_misses = m;
    return c;
  }

  /// Stops the server; returns its trace records, peak RSS and median
  /// set-up time.
  std::map<uint64_t, TraceRecord> Stop(double* rss_mb, double* setup_s) {
    std::fprintf(to_, "stop\n");
    std::fflush(to_);
    std::map<uint64_t, TraceRecord> records;
    for (;;) {
      const std::string line = ReadLine();
      if (line == "end") break;
      if (std::sscanf(line.c_str(), "rss %lf setup %lf", rss_mb, setup_s) == 2) continue;
      TraceRecord r;
      unsigned long long id = 0;
      long long v[2 + obs::kNumPhases] = {};
      if (std::sscanf(line.c_str(), "t %llu %lld %lld %lld %lld %lld %lld %lld %lld", &id, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 9) {
        Die("bad trace record");
      }
      r.id = id;
      r.start_ns = v[0];
      r.total_ns = v[1];
      for (int p = 0; p < obs::kNumPhases; ++p) r.phase_ns[p] = v[2 + p];
      records[r.id] = r;
    }
    int status = 0;
    waitpid(g_server_pid, &status, 0);
    g_server_pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) Die("server child failed");
    return records;
  }

  uint16_t port() const { return port_; }

 private:
  [[noreturn]] static void Die(const char* what) {
    std::fprintf(stderr, "FATAL: %s\n", what);
    std::exit(1);
  }
  std::string ReadLine() {
    char buf[512];
    if (std::fgets(buf, sizeof(buf), from_) == nullptr) Die("server child closed its pipe");
    std::string line(buf);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  FILE* to_ = nullptr;
  FILE* from_ = nullptr;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Load generator: one raw binary-protocol connection per thread.
// ---------------------------------------------------------------------------
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = write(fd_, bytes.data() + off, bytes.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<size_t>(w);
    }
    return true;
  }

  /// Reads whatever is available (waiting up to `timeout_ns`); false on EOF
  /// or error.
  bool Fill(int64_t timeout_ns) {
    pollfd p{fd_, POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000), static_cast<long>(timeout_ns % 1'000'000'000)};
    const int r = ppoll(&p, 1, &ts, nullptr);
    if (r < 0) return errno == EINTR;
    if (r == 0) return true;
    char buf[64 << 10];
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      buf_.append(buf, static_cast<size_t>(n));
      return true;
    }
    return n < 0 && (errno == EAGAIN || errno == EINTR);
  }

  /// Decodes one buffered frame; kNeedMore when none is complete.
  ParseStatus Next(Frame* frame) {
    size_t consumed = 0;
    std::string error;
    const ParseStatus st = server::DecodeFrame(buf_.data(), buf_.size(), 64 << 20, frame, &consumed, &error);
    if (st == ParseStatus::kOk) buf_.erase(0, consumed);
    return st;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Request {
  int text = 0;
  int tree = -1;  // -1: the whole corpus
};

// A request's kind for floor_qps: its text, and whether it goes to one
// tree or to the whole corpus.
constexpr int kNumKinds = 2 * kNumTexts;
int KindOf(const Request& r) { return 2 * r.text + (r.tree < 0 ? 1 : 0); }

// Timestamps of one traced request, on the client side.
struct ClientTiming {
  uint64_t trace_id = 0;
  int64_t enc0 = 0, enc1 = 0, recv = 0, dec = 0;
};

struct PhaseStats {
  int64_t sent = 0, ok = 0, failed = 0;
  std::vector<Sample> samples;  // closed loop: at completion; open: at due
  std::vector<double> late_us;
  std::vector<ClientTiming> timings;
  std::vector<int> kinds;  // closed loop: KindOf each sample's request
  std::vector<double> plain_us;  // traced loop: latency of untraced requests
  int64_t start_ns = 0, end_ns = 0;  // the measured window
  double elapsed_s = 0;
  uint64_t answer_hash = 0;
  std::vector<double> Latencies() const {
    std::vector<double> us;
    for (const Sample& s : samples) us.push_back(s.latency_us);
    return us;
  }
  void Merge(PhaseStats&& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    timings.insert(timings.end(), o.timings.begin(), o.timings.end());
    kinds.insert(kinds.end(), o.kinds.begin(), o.kinds.end());
    plain_us.insert(plain_us.end(), o.plain_us.begin(), o.plain_us.end());
    elapsed_s = std::max(elapsed_s, o.elapsed_s);
    answer_hash += o.answer_hash;
  }
};

class LoadGen {
 public:
  LoadGen(const Inputs& in, uint16_t port) : in_(in), port_(port) {}

  /// Closed loop: each connection sends its next request when the previous
  /// answer arrives, for `seconds`. With `trace`, every other block of
  /// kNumTexts requests of a connection carries a trace id and client
  /// timings; the blocks between are timed alone, for the sum check.
  PhaseStats Closed(double seconds, bool trace) {
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    const uint64_t call = ++closed_calls_;  // keeps trace ids unique
    PhaseStats all = RunThreads([&](int c, PhaseStats* out) {
      Conn conn;
      if (!conn.Connect(port_)) {
        ++out->failed;
        return;
      }
      for (int64_t k = 0; NowNs() < stop; ++k) {
        const Request r = Next(c);
        const bool traced = trace && (k / kNumTexts) % 2 == 1;
        ClientTiming t;
        t.trace_id = traced ? call << 48 | static_cast<uint64_t>(c + 1) << 40 | static_cast<uint64_t>(k + 1) : 0;
        t.enc0 = NowNs();
        const std::string bytes = Encode(r, static_cast<uint32_t>(k + 1), t.trace_id);
        t.enc1 = NowNs();
        ++out->sent;
        Frame frame;
        if (!conn.SendAll(bytes) || !AwaitFrame(&conn, &frame, stop + kDrainNs)) {
          ++out->failed;
          return;
        }
        t.recv = NowNs();
        auto resp = server::DecodeResponseFrame(frame);
        t.dec = NowNs();
        out->samples.push_back({t.dec, static_cast<double>(t.dec - t.enc0) / 1e3});
        out->kinds.push_back(KindOf(r));
        if (!Check(r, resp, out)) continue;
        if (traced) out->timings.push_back(t);
        if (trace && !traced) out->plain_us.push_back(out->samples.back().latency_us);
      }
    });
    all.start_ns = start;
    all.end_ns = start;
    for (const Sample& sample : all.samples) all.end_ns = std::max(all.end_ns, sample.at_ns);
    return all;
  }

  /// Open loop at `rate` requests/s in total: request k of a connection is
  /// due at start + k / (rate / kConns) and is timed from that due time.
  /// Requests are pipelined, so a slow answer does not delay later sends.
  PhaseStats Open(double rate, double seconds) {
    const double per_conn = rate / kConns;
    const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(per_conn * seconds));
    const double interval_ns = 1e9 / per_conn;
    const int64_t start = NowNs() + 2'000'000;
    PhaseStats all = RunThreads([&](int c, PhaseStats* out) {
      Conn conn;
      if (!conn.Connect(port_)) {
        out->failed += n;
        return;
      }
      // Stagger the connections across one interval.
      const int64_t first = start + static_cast<int64_t>(interval_ns * c / kConns);
      const int64_t give_up = first + static_cast<int64_t>(seconds * 1e9) + kDrainNs;
      struct Pending {
        Request req;
        int64_t due;
      };
      std::deque<Pending> pending;
      int64_t k = 0, last_done = first;
      while (k < n || !pending.empty()) {
        const int64_t now = NowNs();
        if (now > give_up) {
          out->failed += static_cast<int64_t>(pending.size()) + (n - k);
          return;
        }
        const int64_t due = first + static_cast<int64_t>(interval_ns * static_cast<double>(k));
        if (k < n && now >= due) {
          const Request r = Next(c);
          out->late_us.push_back(static_cast<double>(now - due) / 1e3);
          ++out->sent;
          if (!conn.SendAll(Encode(r, static_cast<uint32_t>(k + 1), 0))) {
            out->failed += static_cast<int64_t>(pending.size()) + 1;
            return;
          }
          pending.push_back({r, due});
          ++k;
          continue;
        }
        if (!conn.Fill(k < n ? due - now : 20'000'000)) {
          out->failed += static_cast<int64_t>(pending.size());
          return;
        }
        Frame frame;
        ParseStatus st;
        while (!pending.empty() && (st = conn.Next(&frame)) == ParseStatus::kOk) {
          const int64_t done = NowNs();
          const Pending p = pending.front();
          pending.pop_front();
          out->samples.push_back({p.due, static_cast<double>(done - p.due) / 1e3});
          last_done = done;
          Check(p.req, server::DecodeResponseFrame(frame), out);
        }
      }
      out->elapsed_s = static_cast<double>(last_done - first) * 1e-9;
    });
    all.start_ns = start;
    all.end_ns = start + static_cast<int64_t>(seconds * 1e9);
    return all;
  }

  /// Sends every (text, tree) pair and every whole-corpus request once
  /// over one connection.
  PhaseStats Warm() {
    PhaseStats stats;
    Conn conn;
    if (!conn.Connect(port_)) {
      ++stats.failed;
      return stats;
    }
    std::vector<Request> reqs;
    for (int q = 0; q < kNumTexts; ++q) {
      for (int t = -1; t < kTrees; ++t) reqs.push_back({q, t});
    }
    uint32_t id = 1;
    for (const Request& r : reqs) {
      ++stats.sent;
      Frame frame;
      if (!conn.SendAll(Encode(r, id++, 0)) || !AwaitFrame(&conn, &frame, NowNs() + 60'000'000'000)) {
        ++stats.failed;
        return stats;
      }
      auto resp = server::DecodeResponseFrame(frame);
      if (!Check(r, resp, &stats)) continue;
      for (const server::TreeResult& tr : resp->results) {
        stats.answer_hash += AnswerHash(static_cast<uint64_t>(r.text) * 64 + static_cast<uint64_t>(tr.tree_id), tr.bits);
      }
    }
    return stats;
  }

 private:
  static constexpr int64_t kDrainNs = 10'000'000'000;

  template <typename Fn>
  PhaseStats RunThreads(Fn&& fn) {
    std::vector<PhaseStats> per(kConns);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] { fn(c, &per[static_cast<size_t>(c)]); });
    }
    for (auto& t : threads) t.join();
    PhaseStats all;
    for (auto& p : per) all.Merge(std::move(p));
    return all;
  }

  // Waits for the next frame, spinning for the first kSpinNs (see there).
  static bool AwaitFrame(Conn* conn, Frame* frame, int64_t give_up) {
    const int64_t spin_until = NowNs() + kSpinNs;
    for (;;) {
      const ParseStatus st = conn->Next(frame);
      if (st == ParseStatus::kOk) return true;
      if (st == ParseStatus::kError || NowNs() > give_up) return false;
      const bool spin = NowNs() < spin_until;
      if (!conn->Fill(spin ? 0 : 100'000'000)) return false;
      if (spin) sched_yield();
    }
  }

  Request Next(int conn) {
    const int64_t k = next_[static_cast<size_t>(conn)]++;
    Request r;
    r.text = static_cast<int>((conn * 5 + k) % kNumTexts);
    r.tree = k % 8 == 7 ? -1 : static_cast<int>((conn * 31 + k * 17) % kTrees);
    return r;
  }

  std::string Encode(const Request& r, uint32_t id, uint64_t trace_id) const {
    std::vector<int> trees;
    if (r.tree >= 0) trees.push_back(r.tree);
    return server::EncodeFrame(
        FrameType::kQuery,
        server::EncodeQueryPayload(id, server::kDialectXPath, EvalMode::kNodeSet, 0, trees,
                                   in_.texts[static_cast<size_t>(r.text)], trace_id));
  }

  // Counts the response and checks it against the oracle. False on
  // failure.
  bool Check(const Request& r, const xptc::Result<ServiceResponse>& resp, PhaseStats* out) const {
    if (!resp.ok() || resp->code != RespCode::kOk) {
      ++out->failed;
      return false;
    }
    const size_t expect = r.tree >= 0 ? 1 : in_.trees.size();
    if (resp->results.size() != expect) {
      ++out->failed;
      return false;
    }
    ++out->ok;
    for (const server::TreeResult& tr : resp->results) {
      const size_t t = static_cast<size_t>(tr.tree_id);
      CheckAnswer(tr.bits, in_.oracle[static_cast<size_t>(r.text)][t], *in_.trees[t],
                  *in_.alphabet, in_.texts[static_cast<size_t>(r.text)], "wire_small_hot");
    }
    return true;
  }

  const Inputs& in_;
  const uint16_t port_;
  std::vector<int64_t> next_ = std::vector<int64_t>(kConns, 0);
  uint64_t closed_calls_ = 0;
};

struct RungOutcome {
  bool pass = false;
  double achieved_qps = 0;
};

// floor_qps: the closed loop's throughput by Little's law, kConns requests
// in flight over the mean latency, with each request kind at the
// kFloorQuantile-th of its latencies and kinds weighted by how often they
// were sent.
double FloorQps(const std::vector<std::vector<double>>& kind_us) {
  double requests = 0, latency_us = 0;
  for (const std::vector<double>& us : kind_us) {
    requests += static_cast<double>(us.size());
    latency_us += static_cast<double>(us.size()) * Quantile(us, kFloorQuantile);
  }
  return latency_us > 0 ? kConns * requests / latency_us * 1e6 : 0;
}

// Appends the phase's kWindowsPerRound windows.
void AddWindows(const PhaseStats& phase, std::vector<SegmentStats>* windows) {
  for (const SegmentStats& w : SplitWindows(phase.samples, phase.start_ns, phase.end_ns, kWindowsPerRound)) {
    windows->push_back(w);
  }
}

RungOutcome Rung(LoadGen* loadgen, double rate, double seconds, PhaseStats* all) {
  PhaseStats s = loadgen->Open(rate, seconds);
  RungOutcome r;
  // Lateness must not grow: the last quarter of sends may not leave later
  // than the first quarter by more than the latency limit.
  const size_t quarter = s.late_us.size() / 4;
  bool steady = true;
  if (quarter > 0) {
    const std::vector<double> first(s.late_us.begin(), s.late_us.begin() + quarter);
    const std::vector<double> last(s.late_us.end() - quarter, s.late_us.end());
    steady = Quantile(last, 0.9) <= Quantile(first, 0.9) + kLadderP90LimitUs;
  }
  r.pass = s.failed == 0 && steady && Quantile(s.Latencies(), 0.9) <= kLadderP90LimitUs;
  r.achieved_qps = s.elapsed_s > 0 ? static_cast<double>(s.ok) / s.elapsed_s : 0;
  all->Merge(std::move(s));
  return r;
}

// Joins client timings with the server's flight-recorder traces by trace
// id and records one span tree per request. The spans tile each joined
// request from encode to decoded answer: the transport spans and the
// hand-off are the gaps between the client's and the server's timestamps.
SpanTotals JoinSpans(const std::vector<ClientTiming>& timings, const std::map<uint64_t, TraceRecord>& records, int64_t* unmatched) {
  SpanLog log;
  log.Reserve(timings.size() * 12);
  for (const ClientTiming& t : timings) {
    const auto it = records.find(t.trace_id);
    if (it == records.end()) {
      ++*unmatched;
      continue;
    }
    const TraceRecord& r = it->second;
    const int64_t* ph = r.phase_ns;
    const int root = log.Add("request", t.enc0, t.dec, -1, t.trace_id);
    log.Add("protocol.client_encode", t.enc0, t.enc1, root, t.trace_id);
    log.Add("transport.in", t.enc1, r.start_ns, root, t.trace_id);
    int64_t at = r.start_ns;
    const char* names[] = {"server.accept", "server.parse", "server.queue", "server.exec", "server.encode"};
    for (int p = 0; p < 5; ++p) {
      log.Add(names[p], at, at + ph[p], root, t.trace_id);
      at += ph[p];
    }
    const int64_t end = r.start_ns + r.total_ns;
    const int64_t flush_start = end - ph[static_cast<int>(obs::Phase::kFlush)];
    log.Add("server.handoff", at, flush_start, root, t.trace_id);
    log.Add("server.flush", flush_start, end, root, t.trace_id);
    log.Add("transport.out", end, t.recv, root, t.trace_id);
    log.Add("protocol.client_decode", t.recv, t.dec, root, t.trace_id);
  }
  SpanTotals totals = SumSpans({&log});
  // A request without its server trace adds no self time but counts.
  totals.requests = static_cast<int64_t>(timings.size());
  return totals;
}

double PingUs(uint16_t port) {
  auto client = server::BlockingClient::Connect("127.0.0.1", port);
  if (!client.ok()) return 0;
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const int64_t t0 = NowNs();
    auto resp = client->Ping();
    if (!resp.ok()) return 0;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Quantile(us, 0.5);
}

}  // namespace

int RunWire(const Options& opt, Result* result) {
  result->Info("host", HostJson("server: child process, 2 workers + reactor; client: 1 process, "
                                "4 threads, 1 loopback connection each"));
  Inputs in;
  MakeInputs(opt.seed, &in);
  result->Info("sizes", "{\"trees\": \"64 uniform x 1024\", \"texts\": 24}");

  ServerProcess server;
  server.Start(in.xmls);
  LoadGen loadgen(in, server.port());
  PhaseStats all;  // request counts of every phase
  const auto take = [&](PhaseStats s) {
    all.sent += s.sent;
    all.ok += s.ok;
    all.failed += s.failed;
    return s;
  };
  const ServerProcess::Counters c0 = server.ReadCounters();
  // The warm-up sends the same requests on every run with this seed,
  // traced or not, so its answer digest must not differ between the two.
  const PhaseStats warm = take(loadgen.Warm());
  result->Info("answer_hash", static_cast<double>(warm.answer_hash % 1000000007));
  // One more untimed second at full load, so that every server worker has
  // built its per-tree engines before anything is timed.
  take(loadgen.Closed(1.0, false));

  // The closed loop and the fixed rate alternate in rounds; each figure is
  // the best of their windows. The traced run measures shorter.
  const double scale = opt.trace ? 0.5 : 1.0;
  const double closed_s = opt.seconds * kClosedShare * scale / kRounds;
  const double rate_s = opt.seconds * kRateShare * scale / kRounds;
  std::vector<SegmentStats> closed_windows, rate_windows;
  // Closed-loop latencies by request kind (KindOf), over every round.
  std::vector<std::vector<double>> kind_us(kNumKinds);
  PhaseStats rate;  // every round's fixed-rate samples, for diagnostics
  int64_t closed_ok = 0, closed_ns = 0;  // over every closed round
  const HostCpu cpu0 = ReadHostCpu();
  for (int round = 0; round < kRounds; ++round) {
    const PhaseStats closed = take(loadgen.Closed(closed_s, false));
    for (size_t i = 0; i < closed.samples.size(); ++i) {
      kind_us[static_cast<size_t>(closed.kinds[i])].push_back(closed.samples[i].latency_us);
    }
    closed_ok += closed.ok;
    closed_ns += closed.end_ns - closed.start_ns;
    AddWindows(closed, &closed_windows);
    PhaseStats open = take(loadgen.Open(kRate, rate_s));
    AddWindows(open, &rate_windows);
    rate.Merge(std::move(open));
  }
  result->Info("host_steal_frac", StealFrac(cpu0, ReadHostCpu()));
  const double run_qps = static_cast<double>(closed_ok) / (static_cast<double>(closed_ns) * 1e-9);
  result->Info("run_qps", run_qps);
  const SegmentStats closed_seg = Best(closed_windows);
  result->Info("best_window_qps", closed_seg.qps);
  const SegmentStats rate_seg = Best(rate_windows);

  if (!opt.trace) {
    double rss_mb = 0, setup_s = 0;
    server.Stop(&rss_mb, &setup_s);
    result->Attempt(all.sent, all.failed);
    result->Metric("setup_s", setup_s, "s");
    result->Metric("floor_qps", FloorQps(kind_us), "1/s");
    result->Metric("p50_us", rate_seg.p50_us, "us");
    result->Metric("rss_mb", rss_mb, "MiB");
    return 0;
  }

  // Traced run: the second fixed rate and the max-rate ladder, then the
  // closed loop again with the server's flight recorder on every request
  // and client spans around every other block of calls.
  PhaseStats rate2 = take(loadgen.Open(kRate2, opt.seconds * 0.15));
  RungOutcome best;
  const double rung_s = opt.seconds * 0.35 / static_cast<double>(std::size(kLadder));
  for (double rung_rate : kLadder) {
    PhaseStats rung;
    const RungOutcome r = Rung(&loadgen, rung_rate, rung_s, &rung);
    take(std::move(rung));
    if (!r.pass) break;
    best = r;
  }
  const double ping_us = PingUs(server.port());
  server.Command("trace");
  const ServerProcess::Counters c1 = server.ReadCounters();
  // As many traced rounds as untraced ones, so the overhead compares like
  // with like.
  std::vector<PhaseStats> traced_rounds;
  std::vector<SegmentStats> traced_windows;
  for (int round = 0; round < kRounds; ++round) {
    traced_rounds.push_back(take(loadgen.Closed(closed_s, true)));
    AddWindows(traced_rounds.back(), &traced_windows);
  }
  const ServerProcess::Counters c2 = server.ReadCounters();
  double rss_mb = 0, setup_s = 0;
  const std::map<uint64_t, TraceRecord> records = server.Stop(&rss_mb, &setup_s);
  result->Attempt(all.sent, all.failed);

  int64_t unmatched = 0;
  SpanTotals spans;
  std::vector<double> coverage;
  for (const PhaseStats& round : traced_rounds) {
    const SpanTotals totals = JoinSpans(round.timings, records, &unmatched);
    coverage.push_back(CoverageRatio(totals, Mean(round.plain_us)));
    spans.Add(totals);
  }
  ReportSpans(spans, Quantile(coverage, 0.5), result);
  result->Info("unmatched_traces", static_cast<double>(unmatched));
  result->Metric("trace.overhead_frac", 1.0 - Best(traced_windows).qps / closed_seg.qps, "ratio");
  const double hits = static_cast<double>(c2.plan_hits - c1.plan_hits);
  const double misses = static_cast<double>(c2.plan_misses - c1.plan_misses);
  result->Metric("plan.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");

  // The in-process probes run on the same inputs.
  std::vector<ServiceCall> calls;
  for (int q = 0; q < kNumTexts; ++q) {
    for (int t = 0; t < 8; ++t) calls.push_back({in.texts[static_cast<size_t>(q)], {(q * 17 + t * 5) % kTrees}});
    calls.push_back({in.texts[static_cast<size_t>(q)], {}});
  }
  ProbeSetup(in.xmls, result);
  ProbePlan(in.texts, in.alphabet.get(), result);
  ProbeReplay(in.trees, calls, in.alphabet.get(), /*report_exec=*/true, result);
  ProbeAxes(in.trees, in.alphabet.get(), result);
  ProbeSimd(kTreeNodes, result);
  ProbeBatch(in.trees, in.texts, in.alphabet.get(), result);
  const double handle_p50 = ProbeService(in.xmls, calls, result);
  ProbeProtocol(in.texts.front(), kTreeNodes, result);
  ProbeShape(opt.seed, result);
  const std::vector<double> rate_us = rate.Latencies();
  const std::vector<double> rate2_us = rate2.Latencies();
  result->Metric("server.overhead_us", Quantile(rate_us, 0.5) - handle_p50, "us");
  result->Metric("server.ping_us", ping_us, "us");
  result->Metric("server.shed", static_cast<double>(c2.shed - c0.shed), "count");
  result->Metric("server.deadline_exceeded", static_cast<double>(c2.deadline - c0.deadline), "count");
  result->Metric("loadgen.late_p90_us", Quantile(rate.late_us, 0.9), "us");
  result->Metric("diag.p90_us", rate_seg.p90_us, "us");
  result->Metric("diag.p99_us", Quantile(rate_us, 0.99), "us");
  result->Metric("diag.fail_frac", static_cast<double>(all.failed) / static_cast<double>(std::max<int64_t>(all.sent, 1)), "ratio");
  result->Metric("diag.rate2_p50_us", Quantile(rate2_us, 0.5), "us");
  result->Metric("diag.rate2_p90_us", Quantile(rate2_us, 0.9), "us");
  result->Metric("diag.max_rate_qps", best.achieved_qps, "1/s");
  result->Metric("diag.run_qps", run_qps, "1/s");
  return 0;
}

}  // namespace perfbench
}  // namespace xptc
