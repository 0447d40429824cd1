#include "workload/plan_cache.h"

#include <cctype>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "xpath/parser.h"
#include "xpath/rewrite.h"

namespace xptc {

namespace {

std::string NormaliseText(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t PlanCache::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<std::string>()(key.text);
  h = HashCombine(h, reinterpret_cast<size_t>(key.alphabet));
  h = HashCombine(h, (key.optimize ? 2u : 0u) | (key.is_path ? 1u : 0u));
  return h;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  XPTC_CHECK_GT(capacity, 0u);
  collector_ = obs::Registry::Default().AddCollector([this](
      obs::Snapshot* snap) {
    snap->AddCounter("plan_cache.hits", hits_.value());
    snap->AddCounter("plan_cache.misses", misses_.value());
    snap->AddCounter("plan_cache.evictions", evictions_.value());
    snap->AddCounter("plan_cache.program_hits", program_hits_.value());
    snap->AddCounter("plan_cache.program_misses", program_misses_.value());
    snap->AddCounter("plan_cache.lowering_ns", lowering_ns_.value());
  });
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = static_cast<size_t>(hits_.value());
  stats.misses = static_cast<size_t>(misses_.value());
  stats.evictions = static_cast<size_t>(evictions_.value());
  stats.program_hits = static_cast<size_t>(program_hits_.value());
  stats.program_misses = static_cast<size_t>(program_misses_.value());
  stats.lowering_seconds = static_cast<double>(lowering_ns_.value()) * 1e-9;
  return stats;
}

void PlanCache::Purge(const Alphabet* alphabet) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.alphabet == alphabet) {
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  interners_.erase(alphabet);
  programs_.erase(alphabet);
}

PlanCache::LruList::iterator PlanCache::Touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
  return lru_.begin();
}

void PlanCache::InsertLocked(Entry entry) {
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.Inc();
  }
}

ExprInterner& PlanCache::InternerLocked(const Alphabet* alphabet) {
  std::unique_ptr<ExprInterner>& slot = interners_[alphabet];
  if (slot == nullptr) slot = std::make_unique<ExprInterner>();
  return *slot;
}

std::shared_ptr<const exec::Program> PlanCache::ProgramHitLocked(
    const Alphabet* alphabet, const NodeExpr* root) {
  auto per_alphabet = programs_.find(alphabet);
  if (per_alphabet == programs_.end()) return nullptr;
  auto it = per_alphabet->second.find(root);
  if (it == per_alphabet->second.end()) return nullptr;
  std::shared_ptr<const exec::Program> program = it->second.program.lock();
  if (program != nullptr) program_hits_.Inc();
  return program;
}

void PlanCache::AttachProgramLocked(
    const Key& key, std::shared_ptr<const exec::Program> program) {
  auto it = index_.find(key);
  if (it != index_.end()) it->second->program = std::move(program);
}

Result<std::shared_ptr<const Query>> PlanCache::Parse(const std::string& text,
                                                      Alphabet* alphabet,
                                                      bool optimize) {
  Key key{alphabet, optimize, /*is_path=*/false, NormaliseText(text)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      hits_.Inc();
      obs::TraceNote("plan_cache: text hit");
      it->second = Touch(it->second);
      return it->second->query;
    }
  }
  // Parse outside the cache lock (the expensive part); the insert below
  // re-checks the index so a racing parse of the same text cannot create a
  // duplicate LRU entry (which would later make eviction erase the live
  // index slot). Parsing interns labels, so parses hold parse_mu_.
  NodePtr parsed;
  {
    std::lock_guard<std::mutex> lock(parse_mu_);
    XPTC_ASSIGN_OR_RETURN(parsed, ParseNode(key.text, alphabet));
  }
  NodePtr optimized = optimize ? SimplifyNode(parsed) : parsed;

  std::lock_guard<std::mutex> lock(mu_);
  auto raced = index_.find(key);
  if (raced != index_.end()) {
    // A concurrent thread inserted this key while we parsed: keep its
    // entry, discard our redundant (but equivalent) parse.
    hits_.Inc();
    raced->second = Touch(raced->second);
    return raced->second->query;
  }
  misses_.Inc();
  obs::TraceNote("plan_cache: text miss, parsed + interned");
  ExprInterner& interner = InternerLocked(alphabet);
  NodePtr original = interner.Intern(parsed);
  NodePtr plan = interner.Intern(optimized);
  auto query = std::shared_ptr<const Query>(
      new Query(std::move(original), std::move(plan)));
  InsertLocked(Entry{std::move(key), query, nullptr});
  return query;
}

Result<PlanCache::CompiledQuery> PlanCache::ParseCompiled(
    const std::string& text, Alphabet* alphabet, bool optimize) {
  CompiledQuery out;
  XPTC_ASSIGN_OR_RETURN(out.query, Parse(text, alphabet, optimize));
  const Key key{alphabet, optimize, /*is_path=*/false, NormaliseText(text)};
  const NodeExpr* root = out.query->plan().get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.program = ProgramHitLocked(alphabet, root);
    if (out.program != nullptr) {
      obs::TraceNote("plan_cache: program hit (canonical root)");
      AttachProgramLocked(key, out.program);
      return out;
    }
  }
  // Lower outside the lock (the expensive part), then re-check: when two
  // threads race to compile the same root, the first insert wins and the
  // loser's redundant (but equivalent) program is discarded.
  const int64_t lower_start_ns = obs::NowNs();
  std::shared_ptr<const exec::Program> program =
      exec::Program::Compile(out.query->plan());
  const int64_t lower_ns = obs::NowNs() - lower_start_ns;

  std::lock_guard<std::mutex> lock(mu_);
  out.program = ProgramHitLocked(alphabet, root);
  if (out.program == nullptr) {
    program_misses_.Inc();
    lowering_ns_.Add(lower_ns);
    obs::TraceNote("plan_cache: program miss, lowered");
    ProgramMap& per_alphabet = programs_[alphabet];
    // Lazy sweep once the index outgrows the cache capacity: expired slots
    // release their canonical-root pins, so plans evicted from the LRU are
    // not pinned here forever.
    if (per_alphabet.size() >= capacity_) {
      for (auto it = per_alphabet.begin(); it != per_alphabet.end();) {
        if (it->second.program.expired()) {
          it = per_alphabet.erase(it);
        } else {
          ++it;
        }
      }
    }
    per_alphabet[root] = ProgramSlot{out.query->plan(), program};
    out.program = std::move(program);
  }
  AttachProgramLocked(key, out.program);
  return out;
}

Result<std::shared_ptr<const PathQuery>> PlanCache::ParsePath(
    const std::string& text, Alphabet* alphabet, bool optimize) {
  Key key{alphabet, optimize, /*is_path=*/true, NormaliseText(text)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      hits_.Inc();
      obs::TraceNote("plan_cache: text hit");
      it->second = Touch(it->second);
      return it->second->path_query;
    }
  }
  PathPtr parsed;
  {
    // Qualified: the unqualified name resolves to this member function.
    std::lock_guard<std::mutex> lock(parse_mu_);
    XPTC_ASSIGN_OR_RETURN(parsed, ::xptc::ParsePath(key.text, alphabet));
  }
  PathPtr optimized = optimize ? SimplifyPath(parsed) : parsed;

  std::lock_guard<std::mutex> lock(mu_);
  auto raced = index_.find(key);
  if (raced != index_.end()) {
    hits_.Inc();
    raced->second = Touch(raced->second);
    return raced->second->path_query;
  }
  misses_.Inc();
  obs::TraceNote("plan_cache: text miss, parsed + interned");
  ExprInterner& interner = InternerLocked(alphabet);
  PathPtr original = interner.Intern(parsed);
  PathPtr plan = interner.Intern(optimized);
  auto query = std::shared_ptr<const PathQuery>(
      new PathQuery(std::move(original), std::move(plan)));
  InsertLocked(Entry{std::move(key), nullptr, query});
  return query;
}

}  // namespace xptc
