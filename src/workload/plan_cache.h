#ifndef XPTC_WORKLOAD_PLAN_CACHE_H_
#define XPTC_WORKLOAD_PLAN_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/alphabet.h"
#include "common/result.h"
#include "exec/program.h"
#include "obs/metrics.h"
#include "xpath/engine.h"
#include "xpath/intern.h"

namespace xptc {

/// Thread-safe LRU cache of parsed, simplified, hash-consed query plans.
///
/// A serving workload re-parses the same query texts endlessly; a cache hit
/// turns `Query::Parse` (lexing + parsing + simplifier fixpoint) into one
/// hash lookup. Entries are keyed on (alphabet identity, normalised text,
/// optimize flag) — normalisation is surrounding-whitespace stripping, so
/// `" <child[a]> "` and `"<child[a]>"` share a plan. The stored `Query` is
/// immutable and handed out by shared_ptr, safe to evaluate concurrently
/// from any number of workers.
///
/// Every plan that enters the cache is routed through one `ExprInterner`
/// per alphabet (hash-consing): structurally identical subexpressions
/// *across different queries* collapse onto pointer-identical AST nodes,
/// so the evaluator's pointer-keyed memos — per-context node sets and the
/// per-tree `W` memo — hit across the whole workload, not just within one
/// query. Dialects are classified per the engine policy (plan dialect +
/// source dialect) and come along with the cached `Query`.
///
/// Parse *errors* are not cached; they return through `Result` as usual.
///
/// Parsing interns labels into the `Alphabet`, which is not thread-safe,
/// so the cache runs its parses (misses only) one at a time. Code outside
/// the cache that interns into the same alphabet concurrently must still
/// synchronise with it.
///
/// Lifetime: entries are keyed on the `Alphabet*` address, so every alphabet
/// passed to `Parse`/`ParsePath` must outlive the cache — or be withdrawn
/// with `Purge(alphabet)` *before* it is destroyed. Without the purge, a new
/// alphabet allocated at a recycled address would alias the dead one's key
/// and hit plans whose Symbols were minted by the dead alphabet; the purge
/// also reclaims the per-alphabet interner, which otherwise lives for the
/// cache's lifetime.
class PlanCache {
 public:
  /// A point-in-time read of the cache's obs counters (see the `plan_cache.*`
  /// names this instance also publishes into `obs::Registry::Default()`).
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    // Compiled-program counters (`ParseCompiled` only). Programs are keyed
    // by the *canonical plan root*, so two different texts whose plans
    // hash-cons to the same root share one lowering: the second is a
    // program hit even though it was a text miss.
    size_t program_hits = 0;
    size_t program_misses = 0;   // == number of lowering runs
    double lowering_seconds = 0; // total wall time inside Program::Compile
  };

  /// What `ParseCompiled` hands out: the cached plan plus its compiled
  /// bytecode program (see exec/program.h). Both are immutable and safe to
  /// share across threads; the program stays valid for as long as the
  /// caller holds it, independent of cache eviction.
  struct CompiledQuery {
    std::shared_ptr<const Query> query;
    std::shared_ptr<const exec::Program> program;
  };

  explicit PlanCache(size_t capacity = 1024);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Cached equivalent of `Query::Parse(text, alphabet, optimize)`.
  Result<std::shared_ptr<const Query>> Parse(const std::string& text,
                                             Alphabet* alphabet,
                                             bool optimize = true);

  /// Cached equivalent of `PathQuery::Parse(text, alphabet, optimize)`.
  Result<std::shared_ptr<const PathQuery>> ParsePath(const std::string& text,
                                                     Alphabet* alphabet,
                                                     bool optimize = true);

  /// `Parse` plus a compiled bytecode program for the plan (the compiled
  /// execution backend's entry point). Programs are cached keyed by the
  /// canonical (hash-consed) plan root, so texts that simplify to the same
  /// plan compile once; lowering runs outside the cache lock. The
  /// strong program reference rides on the LRU entry: eviction releases
  /// it, but handed-out `CompiledQuery`s keep theirs alive (shared_ptr).
  Result<CompiledQuery> ParseCompiled(const std::string& text,
                                      Alphabet* alphabet,
                                      bool optimize = true);

  /// Drops every cached plan and the interner belonging to `alphabet`.
  /// Call before destroying an alphabet the cache has seen (see class
  /// comment). Plans already handed out stay valid (shared_ptr).
  void Purge(const Alphabet* alphabet);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  Stats stats() const;

 private:
  struct Key {
    const Alphabet* alphabet;
    bool optimize;
    bool is_path;
    std::string text;  // normalised

    bool operator==(const Key& other) const {
      return alphabet == other.alphabet && optimize == other.optimize &&
             is_path == other.is_path && text == other.text;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const Query> query;          // is_path == false
    std::shared_ptr<const PathQuery> path_query; // is_path == true
    // Strong reference to the compiled program, set by ParseCompiled:
    // LRU residency is what keeps a program cached (the by-root map below
    // holds only weak references).
    std::shared_ptr<const exec::Program> program;
  };

  using LruList = std::list<Entry>;

  /// One slot of the by-canonical-root program index. `plan` pins the
  /// canonical root NodePtr so the raw-pointer key can never be recycled
  /// by the interner's sweep while the slot exists; `program` is weak so a
  /// program's lifetime is governed by LRU entries and handed-out
  /// CompiledQuerys, not by this index. Expired slots are swept lazily
  /// when the per-alphabet map outgrows the cache capacity.
  struct ProgramSlot {
    NodePtr plan;
    std::weak_ptr<const exec::Program> program;
  };
  using ProgramMap = std::unordered_map<const NodeExpr*, ProgramSlot>;

  /// Moves a hit to the front; inserts + evicts on miss. Caller holds mu_.
  LruList::iterator Touch(LruList::iterator it);
  void InsertLocked(Entry entry);
  ExprInterner& InternerLocked(const Alphabet* alphabet);

  /// Looks up a live program for `root` under mu_; also records a hit.
  std::shared_ptr<const exec::Program> ProgramHitLocked(
      const Alphabet* alphabet, const NodeExpr* root);
  /// Attaches `program` to the LRU entry for `key`, if resident.
  void AttachProgramLocked(const Key& key,
                           std::shared_ptr<const exec::Program> program);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::mutex parse_mu_;  // held across every parse: they intern labels
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  // One interner per alphabet: symbols from different alphabets must never
  // be conflated even when structurally equal.
  std::unordered_map<const Alphabet*, std::unique_ptr<ExprInterner>>
      interners_;
  // Compiled programs keyed (alphabet, canonical plan root). Per-alphabet
  // because canonical pointers are per-interner; purged with the alphabet.
  std::unordered_map<const Alphabet*, ProgramMap> programs_;
  // Per-instance obs counters (`stats()` stays correct with many caches in
  // one process); a registry collector sums them across instances under
  // the `plan_cache.*` names. Declared after the counters it reads so the
  // collector unregisters before they are destroyed.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter program_hits_;
  obs::Counter program_misses_;
  obs::Counter lowering_ns_;
  obs::Registry::CollectorHandle collector_;
};

}  // namespace xptc

#endif  // XPTC_WORKLOAD_PLAN_CACHE_H_
