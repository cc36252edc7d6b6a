#include "fpras/estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "counting/union_mc.hpp"
#include "util/timer.hpp"

namespace nfacount {

namespace {

constexpr double kE = 2.718281828459045;
constexpr double kGammaNumerator = 2.0 / (3.0 * kE);  // γ0·N = 2/(3e)

// Substream family tags (first ForSubstream coordinate, or HashCombine base).
// Cell streams use (a=q, b=ℓ) with small q, so the tags are large constants:
// a collision with a cell coordinate has probability ~2⁻⁶⁴ per key.
constexpr uint64_t kCountUnionTag = 0xC0C0C0C0C0C0C0C0ULL;
constexpr uint64_t kSampleUnionTag = 0x5A5A5A5A5A5A5A5AULL;
constexpr uint64_t kFinalUnionTag = 0xF1F1F1F1F1F1F1F1ULL;
constexpr uint64_t kDrawStreamTag = 0xD12AD12AD12AD12AULL;
constexpr uint64_t kRefillWalkTag = 0xB47CB47CB47CB47CULL;

// Parallel draw windows (FprasEngine::DrawWindowBatches): consumed attempts
// before the running accept ratio replaces the 2/(3e) prior, the fewest
// batches per draw worker worth a pool wake, and the attempt cap of one
// window (it bounds the window's result slabs).
constexpr int64_t kDrawRatioHistory = 256;
constexpr int64_t kMinDrawBatchesPerThread = 4;
constexpr double kMaxDrawWindowAttempts = 8192.0;

/// Shared AppUnion parameterization for a given level and δ.
AppUnionParams MakeUnionParams(const FprasParams& p, double delta_param,
                               int level) {
  AppUnionParams au;
  au.eps = p.beta;
  au.delta = delta_param;
  au.eps_sz = p.EpsSzAtLevel(level);
  au.trial_scale = p.calibration.trial_scale;
  au.min_trials = p.calibration.trial_floor;
  au.starvation = p.recycle_samples ? StarvationPolicy::kRecycle
                                    : StarvationPolicy::kBreak;
  return au;
}

/// Field-wise sum of the int64 counters (wall_seconds is run-level and
/// handled by the caller).
void AccumulateDiag(const FprasDiagnostics& from, FprasDiagnostics* into) {
  into->appunion_calls += from.appunion_calls;
  into->appunion_trials += from.appunion_trials;
  into->membership_checks += from.membership_checks;
  into->starvations += from.starvations;
  into->sample_calls += from.sample_calls;
  into->sample_success += from.sample_success;
  into->fail_phi_gt_1 += from.fail_phi_gt_1;
  into->fail_bernoulli += from.fail_bernoulli;
  into->fail_dead_branch += from.fail_dead_branch;
  into->padded_words += from.padded_words;
  into->perturbed_counts += from.perturbed_counts;
  into->states_processed += from.states_processed;
  into->walk_batches += from.walk_batches;
}

/// NFACOUNT_DESCENT_CACHE must be a whole non-negative decimal entry budget
/// (a leading digit rules out the whitespace and sign strtoll would accept).
Result<int64_t> ParseDescentCacheEnv(const char* env) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(env, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*env)) || *end != '\0' ||
      errno == ERANGE) {
    return Status::Invalid(
        "NFACOUNT_DESCENT_CACHE must be a non-negative decimal integer");
  }
  return static_cast<int64_t>(parsed);
}

}  // namespace

// ---------------------------------------------------------------------------
// DescentCache
// ---------------------------------------------------------------------------

void DescentCache::Reset(int64_t capacity, size_t row_words,
                         int num_classes) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
  }
  capacity_ = capacity;
  row_words_ = row_words;
  num_classes_ = num_classes;
  entries_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  link_hits_.store(0, std::memory_order_relaxed);
}

int64_t DescentCache::hits() const {
  int64_t total = link_hits_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    total += shard.hits.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t DescentCache::misses() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.misses.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t DescentCache::KeyHash(int level, const uint64_t* set) const {
  uint64_t h = static_cast<uint64_t>(level);
  for (size_t i = 0; i < row_words_; ++i) h = HashCombine(h, set[i]);
  return h;
}

bool DescentCache::Matches(const DescentEntry& entry, int level,
                           const uint64_t* set) {
  return entry.level == level &&
         std::equal(entry.set.begin(), entry.set.end(), set);
}

const DescentEntry* DescentCache::FindLocked(const Shard& shard,
                                             uint64_t hash, int level,
                                             const uint64_t* set) const {
  const auto range = shard.map.equal_range(hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (Matches(it->second, level, set)) return &it->second;
  }
  return nullptr;
}

const DescentEntry* DescentCache::Find(int level, const uint64_t* set) {
  const uint64_t hash = KeyHash(level, set);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const DescentEntry* entry = FindLocked(shard, hash, level, set);
  (entry != nullptr ? shard.hits : shard.misses)
      .fetch_add(1, std::memory_order_relaxed);
  return entry;
}

const DescentEntry* DescentCache::Insert(int level, const uint64_t* set,
                                         const std::vector<double>& sizes,
                                         const uint64_t* rows) {
  if (!enabled()) return nullptr;
  const uint64_t hash = KeyHash(level, set);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (const DescentEntry* existing = FindLocked(shard, hash, level, set)) {
    return existing;
  }
  // Reserve one entry of the shared budget before emplacing: a CAS loop on
  // the counter cannot overshoot capacity_, unlike a pre-lock
  // `entries_ >= capacity_` check, where every concurrent inserter passes
  // the gate and then all of them emplace.
  int64_t current = entries_.load(std::memory_order_relaxed);
  do {
    if (current >= capacity_) return nullptr;
  } while (!entries_.compare_exchange_weak(current, current + 1,
                                           std::memory_order_relaxed));
  DescentEntry entry;
  entry.level = level;
  entry.set.assign(set, set + row_words_);
  entry.sizes = sizes;
  entry.rows.assign(rows, rows + static_cast<size_t>(num_classes_) *
                                     row_words_);
  const size_t num_classes = static_cast<size_t>(num_classes_);
  // Value-initialized: every child link starts null.
  entry.links = std::make_unique<DescentEntry::ChildLink[]>(num_classes);
  bytes_.fetch_add(
      static_cast<int64_t>(sizeof(DescentEntry) +
                           (entry.set.size() + entry.rows.size()) *
                               sizeof(uint64_t) +
                           entry.sizes.size() * sizeof(double) +
                           num_classes * sizeof(DescentEntry::ChildLink)),
      std::memory_order_relaxed);
  return &shard.map.emplace(hash, std::move(entry))->second;
}

// ---------------------------------------------------------------------------
// FprasEngine
// ---------------------------------------------------------------------------

FprasEngine::FprasEngine(const Nfa* nfa, FprasParams params, uint64_t seed)
    : nfa_(nfa),
      params_(std::move(params)),
      unrolled_(nfa, params_.n),
      seed_(seed) {
  assert(nfa != nullptr && nfa->Validate().ok());
  assert(params_.m == nfa->num_states());
  workers_.resize(1);
  workers_[0].pred_scratch = Bitset(static_cast<size_t>(nfa->num_states()));
  draws_.resize(1);
  draws_[0].pred_scratch = Bitset(static_cast<size_t>(nfa->num_states()));
}

const FprasDiagnostics& FprasEngine::diagnostics() const {
  diag_ = FprasDiagnostics{};
  // The draw bundles' counters are part of the same totals (a sequential
  // run would have accumulated them on worker 0).
  for (const std::vector<WorkerScratch>* bundles : {&workers_, &draws_}) {
    for (const WorkerScratch& ws : *bundles) {
      AccumulateDiag(ws.diag, &diag_);
      diag_.arena_bytes_reserved += ws.arena.bytes_reserved();
      diag_.arena_alloc_events += ws.arena.alloc_events();
    }
  }
  // The descent cache's counters are authoritative (shared across workers);
  // they are the only scheduling-dependent diagnostics.
  diag_.memo_hits = descent_.hits();
  diag_.memo_misses = descent_.misses();
  diag_.descent_hits = descent_.hits();
  diag_.descent_misses = descent_.misses();
  diag_.descent_entries = descent_.entries();
  diag_.descent_bytes = descent_.bytes();
  diag_.wall_seconds = run_wall_seconds_;
  return diag_;
}

double FprasEngine::CountEstimateFor(StateId q, int level) const {
  NFA_CHECK(prepared_, "CountEstimateFor requires a prepared engine (Run)");
  NFA_CHECK(level >= 0 && level <= params_.n,
            "CountEstimateFor: level out of [0, n]");
  NFA_CHECK(level <= computed_level_,
            "CountEstimateFor: level not yet computed");
  NFA_CHECK(q >= 0 && q < nfa_->num_states(),
            "CountEstimateFor: state out of [0, m)");
  return levels_[level].cells[q].count_estimate;
}

const SampleBlock& FprasEngine::SampleBlockFor(StateId q, int level) const {
  NFA_CHECK(prepared_, "SamplesFor requires a prepared engine (Run)");
  NFA_CHECK(level >= 0 && level <= params_.n,
            "SamplesFor: level out of [0, n]");
  NFA_CHECK(level <= computed_level_, "SamplesFor: level not yet computed");
  NFA_CHECK(q >= 0 && q < nfa_->num_states(),
            "SamplesFor: state out of [0, m)");
  return levels_[level].cells[q].samples;
}

const LevelState& FprasEngine::LevelStateAt(int level) const {
  NFA_CHECK(prepared_, "LevelStateAt requires a prepared engine (Run)");
  NFA_CHECK(level >= 0 && level <= params_.n,
            "LevelStateAt: level out of [0, n]");
  NFA_CHECK(level <= computed_level_, "LevelStateAt: level not yet computed");
  return levels_[level];
}

std::vector<StoredSample> FprasEngine::SamplesFor(StateId q, int level) const {
  const SampleBlock& block = SampleBlockFor(q, level);
  std::vector<StoredSample> out;
  out.reserve(static_cast<size_t>(block.count()));
  for (int64_t i = 0; i < block.count(); ++i) {
    SampleRef ref = block.At(i);
    out.push_back(StoredSample{
        ref.ToWord(),
        Bitset::FromWords(static_cast<size_t>(nfa_->num_states()),
                          ref.profile)});
  }
  return out;
}

void FprasEngine::UnionSizesInto(int level, const Bitset& state_set,
                                 double delta_param, UnionPurpose purpose,
                                 WorkerScratch& ws, std::vector<double>* out,
                                 std::vector<uint64_t>* rows) {
  assert(level >= 1 && level <= params_.n);
  std::vector<double>& sizes = *out;
  const uint64_t family =
      purpose == UnionPurpose::kCount ? kCountUnionTag : kSampleUnionTag;
  const SymbolClassIndex& classes = unrolled_.symbol_classes();
  const int num_classes = classes.num_classes();
  sizes.assign(static_cast<size_t>(num_classes), 0.0);
  const size_t row_words = state_set.words().size();
  if (rows != nullptr) {
    rows->resize(static_cast<size_t>(num_classes) * row_words);
  }
  AppUnionParams au = MakeUnionParams(params_, delta_param, level);

  for (int c = 0; c < num_classes; ++c) {
    // One predecessor expansion per class: every member of a class has
    // identical reverse rows, so Pred(P, b) is the same set for all of them.
    // The flat layout expands the representative; `ws.pred_scratch` avoids a
    // per-(class, call) allocation.
    Bitset& preds = ws.pred_scratch;
    unrolled_.PredSetInto(state_set, classes.Representative(c), level, &preds);
    if (rows != nullptr) {
      std::copy(preds.words().begin(), preds.words().end(),
                rows->data() + static_cast<size_t>(c) * row_words);
    }
    if (preds.None()) continue;
    std::vector<PredecessorInput>& inputs = ws.union_inputs;
    inputs.clear();
    preds.ForEachSet([&](int p) {
      inputs.push_back(PredecessorInput{&levels_[level - 1].cells[p],
                                        static_cast<StateId>(p), nfa_});
    });
    std::vector<const PredecessorInput*>& ptrs = ws.union_ptrs;
    ptrs.clear();
    for (const auto& in : inputs) ptrs.push_back(&in);

    // Content-keyed substream: the draws depend only on (seed, purpose,
    // level, predecessor-set content) — never on the calling cell, the
    // worker thread, the cache state, or which class produced the set.
    // Recomputing an uncached entry therefore reproduces byte-for-byte what
    // a cache hit would have returned (the descent cache and the parallel
    // sweep stay result-invariant), and classes whose predecessor sets
    // coincide reuse the exact same draw stream — a duplicate class costs
    // AppUnion work but no fresh randomness.
    Rng rng = Rng::ForSubstream(seed_, HashCombine(family, preds.Hash()),
                                static_cast<uint64_t>(level));
    AppUnionOutcome outcome = AppUnionBatched(ptrs, au, ws.union_scratch, rng);
    ++ws.diag.appunion_calls;
    ws.diag.appunion_trials += outcome.completed_trials;
    ws.diag.membership_checks += outcome.membership_checks;
    if (outcome.starved) ++ws.diag.starvations;
    // The stored slice is WEIGHTED: out[c] = weight_c · sz_c, so the vector
    // still sums to the full per-symbol total N = Σ_b sz_b and a discrete
    // draw over it picks a class with the probability mass of all its
    // members combined.
    sizes[static_cast<size_t>(c)] =
        static_cast<double>(classes.Weight(c)) * outcome.estimate;
  }
}

void FprasEngine::RunWalkBatch(int level, const Bitset& state_set, double phi0,
                               uint64_t walk_key, int64_t first_attempt,
                               int count, WorkerScratch& ws) {
  SampleArena& ar = ws.arena;
  const size_t m_bits = static_cast<size_t>(nfa_->num_states());
  const size_t row_words = (m_bits + 63) / 64;
  const SymbolClassIndex& classes = unrolled_.symbol_classes();
  const int num_classes = classes.num_classes();
  ar.BeginBatch(count, level, m_bits, num_classes);
  ++ws.diag.walk_batches;

  // All walks start in one group whose frontier is the target set.
  std::copy(state_set.words().data(), state_set.words().data() + row_words,
            ar.cur.Row(0));
  for (int w = 0; w < count; ++w) {
    ar.rng[w] = Rng::ForSubstream(
        seed_, walk_key, static_cast<uint64_t>(first_attempt + w));
    ar.phi[w] = phi0;
    ar.group_of[w] = 0;
    ar.state_of[w] = SampleArena::kAlive;
  }
  ar.group_link[0] = nullptr;  // the root step has no parent entry
  int group_count = 1;

  const double eta_call = params_.EtaForSampleCall();
  const double delta_union = eta_call / (4.0 * std::max(params_.n, 1));
  // Cross-batch descent cache: both per-group computations below — the
  // union-size vector and the predecessor expansions — are pure functions of
  // (level, frontier content[, class]), so one lookup per group replaces
  // them with bit-identical data (see DescentCache's purity argument).
  const bool use_descent = descent_.enabled();
  int64_t link_hits = 0;

  for (int i = level; i >= 1; --i) {
    std::fill(ar.group_ready.begin(), ar.group_ready.begin() + group_count, 0);
    std::fill(ar.child_of.begin(),
              ar.child_of.begin() +
                  static_cast<size_t>(group_count) * num_classes,
              -1);
    int next_group_count = 0;
    bool any_alive = false;
    for (int w = 0; w < count; ++w) {
      if (ar.state_of[w] != SampleArena::kAlive) continue;
      const int g = ar.group_of[w];
      std::vector<double>& own_sizes = ar.group_sizes[static_cast<size_t>(g)];
      if (!ar.group_ready[g]) {
        // One descent-cache lookup per group — every member shares it, and
        // the cache shares the sizes and predecessor rows across batches,
        // cells, and draws. A set child link of the parent's entry is the
        // lookup; otherwise the group probes, and a miss estimates the
        // sizes, expanding every class's row on the way, and offers both to
        // the cache. An entry found or admitted here is then published in
        // the parent's link, so the next walk down this edge follows it.
        DescentEntry::ChildLink* link = ar.group_link[g];
        const DescentEntry* entry =
            link != nullptr ? link->load(std::memory_order_acquire) : nullptr;
        if (entry != nullptr) {
          ++link_hits;
        } else {
          const uint64_t* frontier = ar.cur.Row(g);
          if (use_descent) entry = descent_.Find(i, frontier);
          if (entry == nullptr) {
            ar.frontier_scratch.AssignWords(frontier, row_words);
            UnionSizesInto(i, ar.frontier_scratch, delta_union,
                           UnionPurpose::kSample, ws, &own_sizes,
                           use_descent ? &ws.pred_rows : nullptr);
            if (use_descent) {
              entry = descent_.Insert(i, frontier, own_sizes,
                                      ws.pred_rows.data());
            }
          }
          if (entry != nullptr && link != nullptr) {
            link->store(entry, std::memory_order_release);
          }
        }
        ar.group_entry[g] = entry;
        double total = 0.0;
        for (double s : entry != nullptr ? entry->sizes : own_sizes) {
          total += s;
        }
        ar.group_total[g] = total;
        ar.group_ready[g] = 1;
      }
      // The group's admitted entry, or nullptr when the cache is off or its
      // budget is spent: then the sizes live in the arena and each drawn
      // class is expanded on demand.
      const DescentEntry* entry = ar.group_entry[g];
      const std::vector<double>& sizes =
          entry != nullptr ? entry->sizes : own_sizes;
      const double total = ar.group_total[g];
      if (!(total > 0.0)) {
        // Every symbol slice estimated empty: reachable only through a
        // perturbed/failed estimate; treat as rejection. Outcomes are staged
        // per walk and folded into the diagnostics by the caller only for
        // the attempts it consumes (ConsumeWalkDiagnostics).
        ar.outcome_of[w] = SampleArena::kOutcomeDead;
        ar.state_of[w] = SampleArena::kDead;
        continue;
      }
      // Two-stage symbol draw over the partition: a class with probability
      // weight_c·sz_c / N (the sizes vector stores the weighted slices),
      // then a uniform member of the class — so a specific symbol b of
      // class c lands with probability sz_c / N, exactly the per-symbol
      // distribution of the uncompressed loop.
      const int c = ar.rng[w].DiscreteIndex(sizes);
      assert(c >= 0);
      const int weight = classes.Weight(c);
      const Symbol b =
          weight == 1 ? classes.Representative(c)
                      : classes.Member(c, static_cast<int>(ar.rng[w].UniformU64(
                                             static_cast<uint64_t>(weight))));
      const double pr_b = sizes[static_cast<size_t>(c)] /
                          (static_cast<double>(weight) * total);
      int32_t& child = ar.child_of[static_cast<size_t>(g) * num_classes + c];
      if (child < 0) {
        // First member to draw class c: expand (frontier, c) once into the
        // next plane's row for the child group. All members of the class
        // share the row (identical reverse rows), so walks that drew
        // different symbols of one class still share the child group.
        child = next_group_count++;
        uint64_t* out_row = ar.next.Row(child);
        if (entry != nullptr) {
          std::copy(entry->Row(c), entry->Row(c) + row_words, out_row);
          ar.next_group_link[child] = &entry->Link(c);
        } else {
          ar.next_group_link[child] = nullptr;
          unrolled_.PredSetWordsInto(ar.cur.Row(g),
                                     classes.Representative(c), i, out_row,
                                     *kernels_);
        }
        // Invariant carried over from the sequential walk's assert(cur.Any()):
        // sizes[c] > 0 implies the class's predecessor slice is non-empty.
        assert(std::any_of(out_row, out_row + row_words,
                           [](uint64_t word) { return word != 0; }) &&
               "drawn class expanded to an empty frontier");
      }
      ar.WordOf(w)[i - 1] = b;
      ar.phi[w] /= pr_b;
      ar.next_group_of[w] = child;
      any_alive = true;
    }
    if (!any_alive) break;  // the whole batch died mid-walk
    std::swap(ar.cur, ar.next);
    std::swap(ar.group_of, ar.next_group_of);
    std::swap(ar.group_link, ar.next_group_link);
    group_count = next_group_count;
  }
  descent_.CountLinkHits(link_hits);

  // Base case (Alg. 2 lines 4-6), per walk. A group's frontier is shared,
  // so the initial-state test is per group; φ and the Bernoulli are per
  // walk. The walk is guaranteed to land on the initial state when it lands
  // anywhere (PredSet intersects level-0 reachability = {initial}).
  const size_t init = static_cast<size_t>(nfa_->initial());
  for (int w = 0; w < count; ++w) {
    if (ar.state_of[w] != SampleArena::kAlive) continue;
    const uint64_t* row = ar.cur.Row(ar.group_of[w]);
    if (!((row[init >> 6] >> (init & 63)) & 1)) {
      ar.outcome_of[w] = SampleArena::kOutcomeDead;
      ar.state_of[w] = SampleArena::kDead;
      continue;
    }
    if (ar.phi[w] > 1.0) {
      ar.outcome_of[w] = SampleArena::kOutcomePhi;  // Fail1
      ar.state_of[w] = SampleArena::kDead;
      continue;
    }
    if (!ar.rng[w].Bernoulli(ar.phi[w])) {
      ar.outcome_of[w] = SampleArena::kOutcomeBernoulli;  // Fail2
      ar.state_of[w] = SampleArena::kDead;
      continue;
    }
    ar.outcome_of[w] = SampleArena::kOutcomeAccepted;
    ar.state_of[w] = SampleArena::kAccepted;
    ar.accepted.push_back(w);
  }
}

void FprasEngine::ConsumeWalkDiagnostics(const uint8_t* outcomes,
                                         int consumed,
                                         FprasDiagnostics* diag) {
  diag->sample_calls += consumed;
  for (int w = 0; w < consumed; ++w) {
    switch (outcomes[w]) {
      case SampleArena::kOutcomeAccepted: ++diag->sample_success; break;
      case SampleArena::kOutcomePhi: ++diag->fail_phi_gt_1; break;
      case SampleArena::kOutcomeBernoulli: ++diag->fail_bernoulli; break;
      default: ++diag->fail_dead_branch; break;
    }
  }
}

void FprasEngine::AppendAcceptedWalk(int level, int walk, WorkerScratch& ws,
                                     SampleBlock* block) {
  SampleArena& ar = ws.arena;
  const Symbol* word = ar.WordOf(walk);
  // Fused profile pass: forward over the arena scratch, no allocation and no
  // second simulation through MakeSample.
  ar.profile_cur.Clear();
  ar.profile_cur.Set(static_cast<size_t>(nfa_->initial()));
  for (int j = 0; j < level; ++j) {
    unrolled_.SuccSetWordsInto(ar.profile_cur.words().data(), word[j],
                               ar.profile_next.mutable_words());
    std::swap(ar.profile_cur, ar.profile_next);
  }
  block->Append(word, ar.profile_cur.words().data());
}

double FprasEngine::PerturbedCount(int level, Rng& rng) {
  // N(q^ℓ) ← Uniform{0, 1, ..., |Σ|^ℓ} (Alg. 3 line 19). |Σ|^ℓ can exceed any
  // integer type; the estimate is a double throughout, so draw a uniform real
  // over [0, |Σ|^ℓ] and round — identical for feasible ℓ, and the event has
  // probability η/2n anyway.
  const double top = std::pow(static_cast<double>(nfa_->alphabet_size()), level);
  if (top < 9.0e15) {
    return static_cast<double>(
        rng.UniformU64(static_cast<uint64_t>(top) + 1));
  }
  return std::floor(rng.UniformDouble() * top);
}

void FprasEngine::RefillSamples(StateId q, int level, WorkerScratch& ws) {
  StateLevelData& slot = levels_[level].cells[q];
  slot.samples.Reset(level, static_cast<size_t>(nfa_->num_states()));
  slot.samples.Reserve(params_.ns);
  const double count = slot.count_estimate;

  if (count > 0.0) {
    const double gamma0 = kGammaNumerator / count;
    Bitset& target = ws.target_scratch;
    target.Clear();
    target.Set(static_cast<size_t>(q));
    // This cell's walk-stream family: attempt a of (q, ℓ) always draws from
    // substream (walk-tag·q·ℓ, a), no matter how attempts are batched —
    // that is the batch width invariance contract.
    const uint64_t walk_key = HashCombine(
        HashCombine(kRefillWalkTag, static_cast<uint64_t>(q)),
        static_cast<uint64_t>(level));
    int64_t attempt = 0;
    while (attempt < params_.xns && slot.samples.count() < params_.ns) {
      const int batch = static_cast<int>(
          std::min<int64_t>(batch_width_, params_.xns - attempt));
      RunWalkBatch(level, target, gamma0, walk_key, attempt, batch, ws);
      // Keep the first accepted walks in attempt order; surplus accepts in
      // the final batch are discarded (they would be the next sequential
      // attempts' accepts, which a narrower batch never runs). Diagnostics
      // consume exactly through the attempt that fills S(q^ℓ) — the last
      // attempt a batch_width = 1 run executes — so the per-walk counters
      // are identical for every batch width.
      int consumed = batch;
      for (int32_t w : ws.arena.accepted) {
        AppendAcceptedWalk(level, w, ws, &slot.samples);
        if (slot.samples.count() >= params_.ns) {
          consumed = w + 1;
          break;
        }
      }
      ConsumeWalkDiagnostics(ws.arena.outcome_of.data(), consumed, &ws.diag);
      attempt += batch;
    }
  }

  // Padding (Alg. 3 lines 27-30): duplicate one fixed witness word.
  const int64_t shortfall = params_.ns - slot.samples.count();
  if (shortfall > 0) {
    std::optional<Word> witness = unrolled_.WitnessWord(q, level);
    assert(witness.has_value());  // q is reachable at this level
    const Bitset reach = unrolled_.ReachProfile(*witness);
    ws.diag.padded_words += shortfall;
    slot.samples.AppendRepeat(witness->data(), reach.words().data(),
                              shortfall);
  }
}

void FprasEngine::ProcessCell(StateId q, int level, WorkerScratch& ws) {
  // The cell's private substream: keyed by (seed, q, ℓ) only, so the draw
  // sequence is identical no matter which worker runs the cell or in what
  // order the level's cells are scheduled.
  Rng cell_rng = Rng::ForSubstream(seed_, static_cast<uint64_t>(q),
                                   static_cast<uint64_t>(level));
  Bitset& singleton = ws.target_scratch;
  singleton.Clear();
  singleton.Set(static_cast<size_t>(q));
  // N(q^ℓ) = Σ_b sz_b (lines 12-17). This union-size computation uses its
  // own δ and its own substream family — it is not cached or shared with
  // sample().
  std::vector<double> sizes;
  UnionSizesInto(level, singleton, params_.DeltaForCountUnion(),
                 UnionPurpose::kCount, ws, &sizes, nullptr);
  double total = 0.0;
  for (double s : sizes) total += s;

  if (params_.perturb_support &&
      cell_rng.Bernoulli(params_.eta / (2.0 * std::max(params_.n, 1)))) {
    total = PerturbedCount(level, cell_rng);  // lines 18-19
    ++ws.diag.perturbed_counts;
  }
  levels_[level].cells[q].count_estimate = total;
  RefillSamples(q, level, ws);
  ++ws.diag.states_processed;
}

Status FprasEngine::AdvanceLevel(ThreadPool& pool) {
  // Level barrier: every cell of level ℓ reads only the frozen LevelState
  // ℓ−1 (the sampling walks descend strictly below ℓ) and writes only its
  // own levels_[ℓ].cells[q] slot, so the cells are independent.
  const int level = computed_level_ + 1;
  const std::vector<int> states = unrolled_.ReachableAt(level).ToIndices();
  NFA_RETURN_NOT_OK(pool.ParallelFor(
      static_cast<int64_t>(states.size()), [&](int64_t i, int worker) {
        ProcessCell(static_cast<StateId>(states[static_cast<size_t>(i)]),
                    level, workers_[static_cast<size_t>(worker)]);
        return Status::Ok();
      }));
  levels_[level].level = level;
  ComputeAcceptedCount(level);
  // Release-publish: a serve-mode reader that acquire-loads computed_level()
  // and sees `level` also sees every write the cell fan-out and the
  // |L(A_ℓ)| union made above.
  computed_level_.store(level, std::memory_order_release);
  return Status::Ok();
}

Status FprasEngine::Prepare() {
  WallTimer timer;
  NFA_RETURN_NOT_OK(nfa_->Validate());
  // Validate the thread knob before allocating anything sized by it: an
  // absurd value must surface as Status, not as bad_alloc/system_error
  // escaping the no-throw API.
  if (params_.num_threads < 0 ||
      params_.num_threads > FprasParams::kMaxThreads) {
    return Status::Invalid("num_threads must be in [0, 4096]");
  }
  if (params_.batch_width < 0 ||
      params_.batch_width > FprasParams::kMaxBatchWidth) {
    return Status::Invalid("batch_width must be in [0, 4096]");
  }
  if (params_.descent_cache_capacity < 0) {
    return Status::Invalid("descent_cache_capacity must be >= 0");
  }
  // Descent cache: process-wide env override first (CI runs the whole tier-1
  // suite with NFACOUNT_DESCENT_CACHE=0 to keep the uncached engine covered,
  // same idiom as NFACOUNT_FORCE_SCALAR), then the params knob. Results are
  // bit-identical at every capacity, so the override can never change what a
  // test asserts about estimates, tables, or draws. A malformed value is an
  // error rather than silently ignored: a typo must not run the cached
  // engine under a leg that claims to test the uncached one.
  int64_t descent_capacity = params_.descent_cache_capacity;
  if (const char* env = std::getenv("NFACOUNT_DESCENT_CACHE")) {
    NFA_ASSIGN_OR_RETURN(descent_capacity, ParseDescentCacheEnv(env));
  }
  prepared_ = false;
  computed_level_ = -1;
  run_wall_seconds_ = 0.0;
  pool_.reset();

  const int n = params_.n;
  const int m = nfa_->num_states();
  // Hot-loop stride: the walk plane and the descent cache are sized by the
  // symbol partition, not the raw alphabet (identical under the trivial
  // partition; C << |Σ| on corpus-style alphabets).
  const int num_classes = unrolled_.symbol_classes().num_classes();
  const int threads = ThreadPool::ResolveThreadCount(params_.num_threads);
  batch_width_ = params_.ResolvedBatchWidth();
  kernels_ = &simd::ActiveKernels();
  post_attempt_counter_ = 0;
  draw_pool_.reset();
  window_ = DrawWindow{};
  // Draw-path scratch: its own bundles so post-run draws never contend
  // with (or corrupt) a concurrently extending sweep's worker slots.
  for (std::vector<WorkerScratch>* bundles : {&workers_, &draws_}) {
    bundles->clear();
    bundles->resize(static_cast<size_t>(threads));
    for (WorkerScratch& ws : *bundles) {
      ws.pred_scratch = Bitset(static_cast<size_t>(m));
      ws.target_scratch = Bitset(static_cast<size_t>(m));
      ws.arena.PrepareRun(batch_width_, std::max(n, 1),
                          static_cast<size_t>(m), num_classes);
    }
  }
  levels_.assign(static_cast<size_t>(n) + 1, LevelState{});
  for (LevelState& state : levels_) {
    state.cells.resize(static_cast<size_t>(m));
  }
  descent_.Reset(descent_capacity, (static_cast<size_t>(m) + 63) / 64,
                 num_classes);

  // Level 0 (Alg. 3 lines 6-10): L(I⁰) = {λ}, everything else empty. The
  // sample list holds ns copies of λ — "uniform with replacement" from a
  // singleton language — so AppUnion cursors cannot starve at level 1.
  StateLevelData& base = levels_[0].cells[nfa_->initial()];
  base.count_estimate = 1.0;
  base.samples.Reset(0, static_cast<size_t>(m));
  base.samples.Reserve(params_.ns);
  {
    // λ's reach profile is {initial} on either layout.
    Bitset lambda_reach(static_cast<size_t>(m));
    lambda_reach.Set(static_cast<size_t>(nfa_->initial()));
    base.samples.AppendRepeat(nullptr, lambda_reach.words().data(),
                              params_.ns);
  }
  levels_[0].level = 0;
  ComputeAcceptedCount(0);
  computed_level_ = 0;
  prepared_ = true;
  run_wall_seconds_ += timer.ElapsedSeconds();
  return Status::Ok();
}

Status FprasEngine::RunToLevel(int target) {
  if (!prepared_) {
    return Status::FailedPrecondition("RunToLevel requires Prepare()");
  }
  if (target < 0 || target > params_.n) {
    return Status::OutOfRange(
        "RunToLevel: target level outside [0, horizon]; the horizon fixed "
        "the parameter derivation at construction");
  }
  if (target <= computed_level_) return Status::Ok();
  WallTimer timer;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreadCount(params_.num_threads));
  }
  while (computed_level_ < target) {
    NFA_RETURN_NOT_OK(AdvanceLevel(*pool_));
  }
  run_wall_seconds_ += timer.ElapsedSeconds();
  return Status::Ok();
}

Status FprasEngine::Run() {
  NFA_RETURN_NOT_OK(Prepare());
  return RunToLevel(params_.n);
}

Status FprasEngine::RestoreComputedState(int computed_level,
                                         std::vector<LevelState> levels,
                                         int64_t draw_cursor) {
  if (!prepared_) {
    return Status::FailedPrecondition(
        "RestoreComputedState requires Prepare()");
  }
  if (computed_level < 0 || computed_level > params_.n) {
    return Status::OutOfRange(
        "RestoreComputedState: computed level outside [0, horizon]");
  }
  if (levels.size() != static_cast<size_t>(computed_level) + 1) {
    return Status::Invalid("RestoreComputedState: level count mismatch");
  }
  if (draw_cursor < 0) {
    return Status::Invalid("RestoreComputedState: negative draw cursor");
  }
  const int m = nfa_->num_states();
  const size_t profile_words = (static_cast<size_t>(m) + 63) / 64;
  for (int level = 0; level <= computed_level; ++level) {
    const LevelState& state = levels[static_cast<size_t>(level)];
    if (state.level != level) {
      return Status::Invalid("RestoreComputedState: level index mismatch");
    }
    if (state.cells.size() != static_cast<size_t>(m)) {
      return Status::Invalid("RestoreComputedState: cell count mismatch");
    }
    for (const StateLevelData& cell : state.cells) {
      if (cell.samples.count() > 0 &&
          (cell.samples.word_len() != level ||
           cell.samples.profile_words() != profile_words)) {
        return Status::Invalid(
            "RestoreComputedState: sample block stride mismatch");
      }
      // N(q^ℓ) weights AppUnion's input draw, so a negative or NaN count
      // must not reach ComputeAcceptedCount. +inf stays legal: PerturbedCount
      // produces it once |Σ|^ℓ overflows a double.
      if (!(cell.count_estimate >= 0.0)) {
        return Status::Invalid(
            "RestoreComputedState: negative or NaN count estimate");
      }
    }
  }
  for (int level = 0; level <= computed_level; ++level) {
    levels_[static_cast<size_t>(level)] =
        std::move(levels[static_cast<size_t>(level)]);
    ComputeAcceptedCount(level);
  }
  computed_level_.store(computed_level, std::memory_order_release);
  post_attempt_counter_ = draw_cursor;
  return Status::Ok();
}

void FprasEngine::ComputeAcceptedCount(int level) {
  // Single accepting state: N(q_F^ℓ) (Alg. 3 line 31). Several: one
  // AppUnion over the accepting states' (S, N) pairs (footnote 1: the
  // single-final-state assumption is WLOG). At ℓ = 0 only the initial
  // state is reachable, so this is N(I⁰) = 1 or 0.
  LevelState& state = levels_[static_cast<size_t>(level)];
  Bitset alive = nfa_->accepting();
  alive &= unrolled_.ReachableAt(level);
  const size_t count = alive.Count();
  if (count <= 1) {
    state.accepted_count =
        count == 0 ? 0.0 : state.cells[alive.FirstSet()].count_estimate;
    return;
  }

  WorkerScratch& ws = workers_[0];
  std::vector<PredecessorInput>& inputs = ws.union_inputs;
  inputs.clear();
  alive.ForEachSet([&](int q) {
    inputs.push_back(PredecessorInput{&state.cells[q],
                                      static_cast<StateId>(q), nfa_});
  });
  std::vector<const PredecessorInput*>& ptrs = ws.union_ptrs;
  ptrs.clear();
  for (const auto& in : inputs) ptrs.push_back(&in);
  AppUnionParams au = MakeUnionParams(params_, params_.eta, level + 1);
  // Content-keyed stream (accepting ∩ reachable, ℓ): a fresh sweep, an
  // incremental extension and a checkpoint restore all compute the same
  // bits for the level.
  Rng rng = Rng::ForSubstream(seed_, HashCombine(kFinalUnionTag, alive.Hash()),
                              static_cast<uint64_t>(level));
  AppUnionOutcome outcome = AppUnionBatched(ptrs, au, ws.union_scratch, rng);
  ++ws.diag.appunion_calls;
  ws.diag.appunion_trials += outcome.completed_trials;
  ws.diag.membership_checks += outcome.membership_checks;
  if (outcome.starved) ++ws.diag.starvations;
  state.accepted_count = outcome.estimate;
}

double FprasEngine::EstimateAtLength(int level) const {
  NFA_CHECK(prepared_, "EstimateAtLength requires a prepared engine (Run)");
  NFA_CHECK(level >= 0 && level <= params_.n,
            "EstimateAtLength: level out of [0, n]");
  NFA_CHECK(level <= computed_level(),
            "EstimateAtLength: level not yet computed");
  return levels_[static_cast<size_t>(level)].accepted_count;
}

FprasEngine::CacheCounters FprasEngine::cache_counters() const {
  CacheCounters c;
  c.memo_hits = descent_.hits();
  c.memo_misses = descent_.misses();
  c.descent_hits = descent_.hits();
  c.descent_misses = descent_.misses();
  c.descent_entries = descent_.entries();
  c.descent_bytes = descent_.bytes();
  return c;
}

int64_t FprasEngine::ApproxTableBytes() const {
  const int published = computed_level();
  int64_t bytes = 0;
  for (int level = 0; level <= published; ++level) {
    const LevelState& state = levels_[static_cast<size_t>(level)];
    bytes +=
        static_cast<int64_t>(state.cells.size() * sizeof(StateLevelData));
    for (const StateLevelData& cell : state.cells) {
      bytes += cell.samples.bytes_reserved();
    }
  }
  return bytes;
}

int64_t FprasEngine::DrawWindowBatches(int64_t owed,
                                       int64_t attempts_left) const {
  const int64_t threads = static_cast<int64_t>(draws_.size());
  if (threads == 1) return 1;
  // The accept ratio of the draw attempts consumed so far, or 2/(3e) — the
  // ratio of exact tables (γ0·|L(A_ℓ)|) — until there is a history.
  const FprasDiagnostics& history = draws_[0].diag;
  const double ratio =
      history.sample_calls >= kDrawRatioHistory
          ? static_cast<double>(history.sample_success) /
                static_cast<double>(history.sample_calls)
          : kGammaNumerator;
  const double width = static_cast<double>(batch_width_);
  // The batches the owed words need at that ratio: a window that size ends
  // within a batch or two of its last needed accept, so the speculative
  // tail is at most one window (and a short one is finished inline).
  double batches = ratio > 0.0 ? std::ceil(static_cast<double>(owed) /
                                           (ratio * width))
                               : kMaxDrawWindowAttempts / width;
  batches = std::min({batches, std::ceil(attempts_left / width),
                      std::floor(kMaxDrawWindowAttempts / width)});
  // Below a few batches per thread the pool wake costs more than the split
  // saves.
  if (batches < static_cast<double>(kMinDrawBatchesPerThread * threads)) {
    return 1;
  }
  return static_cast<int64_t>(batches);
}

void FprasEngine::RunDrawWindow(int level, const Bitset& alive, double gamma0,
                                int64_t batches, int64_t attempts_left) {
  if (draw_pool_ == nullptr) {
    draw_pool_ = std::make_unique<ThreadPool>(static_cast<int>(draws_.size()));
  }
  const size_t width = static_cast<size_t>(batch_width_);
  const size_t word_len = static_cast<size_t>(level);
  DrawWindow& win = window_;
  win.counts.resize(static_cast<size_t>(batches));
  win.num_accepted.resize(static_cast<size_t>(batches));
  win.outcomes.resize(static_cast<size_t>(batches) * width);
  win.accepted.resize(static_cast<size_t>(batches) * width);
  win.words.resize(static_cast<size_t>(batches) * width * word_len);
  const int64_t first_attempt = post_attempt_counter_;
  const Status status = draw_pool_->ParallelFor(
      batches, [&](int64_t k, int worker) {
        WorkerScratch& ws = draws_[static_cast<size_t>(worker)];
        const int64_t offset = k * batch_width_;
        const int count = static_cast<int>(
            std::min<int64_t>(batch_width_, attempts_left - offset));
        RunWalkBatch(level, alive, gamma0, kDrawStreamTag,
                     first_attempt + offset, count, ws);
        const SampleArena& ar = ws.arena;
        const size_t slot = static_cast<size_t>(k) * width;
        win.counts[static_cast<size_t>(k)] = count;
        win.num_accepted[static_cast<size_t>(k)] =
            static_cast<int>(ar.accepted.size());
        std::copy(ar.outcome_of.begin(), ar.outcome_of.begin() + count,
                  win.outcomes.begin() + slot);
        std::copy(ar.accepted.begin(), ar.accepted.end(),
                  win.accepted.begin() + slot);
        for (int32_t w : ar.accepted) {
          std::copy(ar.WordOf(w), ar.WordOf(w) + level,
                    win.words.begin() + (slot + w) * word_len);
        }
        return Status::Ok();
      });
  // RunWalkBatch returns no Status; only an exception (bad_alloc) lands here.
  NFA_CHECK(status.ok(), "SampleAcceptedInto: draw window failed");
}

int64_t FprasEngine::SampleAcceptedInto(int level, int64_t max_attempts,
                                        int64_t min_accepts,
                                        std::vector<Word>* out) {
  NFA_CHECK(prepared_, "SampleAcceptedInto requires a prepared engine (Run)");
  NFA_CHECK(level >= 0 && level <= params_.n,
            "SampleAcceptedInto: level out of [0, n]");
  NFA_CHECK(level <= computed_level(),
            "SampleAcceptedInto: level not yet computed");
  Bitset alive = nfa_->accepting();
  alive &= unrolled_.ReachableAt(level);
  if (alive.None()) return 0;

  // γ0 = 2/(3e) · 1/|L(A_level)|, from the estimate the level stored.
  const double accepted = levels_[static_cast<size_t>(level)].accepted_count;
  if (!(accepted > 0.0)) return 0;
  const double gamma0 = kGammaNumerator / accepted;

  // Post-run draws own their scratch bundles and pool, so they may run
  // concurrently with an extending sweep on the worker slots (serve mode);
  // callers serialize draws among themselves (the attempt cursor is plain).
  WorkerScratch& lead = draws_[0];
  int64_t appended = 0;
  int64_t attempts_left = max_attempts;
  // Scans one finished batch in attempt order. It stops at the accept that
  // satisfies the request; the cursor and budget advance only through it,
  // so the walks after it are as if they never ran (a later call re-derives
  // them from their per-attempt substreams, bit for bit).
  const auto consume = [&](const DrawBatchView& batch) {
    int consumed = batch.count;
    for (int i = 0; i < batch.num_accepted; ++i) {
      const int32_t w = batch.accepted[i];
      const Symbol* word = batch.words + static_cast<size_t>(w) *
                                             batch.word_stride;
      out->emplace_back(word, word + level);
      if (++appended >= min_accepts) {
        consumed = w + 1;
        break;
      }
    }
    post_attempt_counter_ += consumed;
    attempts_left -= consumed;
    ConsumeWalkDiagnostics(batch.outcomes, consumed, &lead.diag);
  };
  while (attempts_left > 0 && appended < min_accepts) {
    const int64_t batches =
        DrawWindowBatches(min_accepts - appended, attempts_left);
    if (batches == 1) {
      const int count =
          static_cast<int>(std::min<int64_t>(batch_width_, attempts_left));
      RunWalkBatch(level, alive, gamma0, kDrawStreamTag,
                   post_attempt_counter_, count, lead);
      const SampleArena& ar = lead.arena;
      consume(DrawBatchView{count, ar.outcome_of.data(), ar.accepted.data(),
                            static_cast<int>(ar.accepted.size()),
                            ar.WordOf(0), ar.word_stride()});
      continue;
    }
    RunDrawWindow(level, alive, gamma0, batches, attempts_left);
    const size_t width = static_cast<size_t>(batch_width_);
    for (int64_t k = 0; k < batches && appended < min_accepts; ++k) {
      const size_t slot = static_cast<size_t>(k) * width;
      consume(DrawBatchView{window_.counts[static_cast<size_t>(k)],
                            window_.outcomes.data() + slot,
                            window_.accepted.data() + slot,
                            window_.num_accepted[static_cast<size_t>(k)],
                            window_.words.data() +
                                slot * static_cast<size_t>(level),
                            static_cast<size_t>(level)});
    }
  }
  return appended;
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

Result<FprasParams> ParamsFromOptions(const CountOptions& options, int m,
                                      int n) {
  FprasParams params;
  NFA_ASSIGN_OR_RETURN(params,
                       FprasParams::Make(options.schedule, m, n, options.eps,
                                         options.delta, options.calibration));
  params.perturb_support = options.perturb_support;
  params.recycle_samples = options.recycle_samples;
  params.num_threads = options.num_threads;
  if (options.descent_cache_capacity >= 0) {
    params.descent_cache_capacity = options.descent_cache_capacity;
  }
  return params;
}

namespace {

/// The one-shot body shared by ApproxCount and ApproxCountAllLengths: one
/// validation, one parameter derivation, one engine run to the horizon.
Result<std::unique_ptr<FprasEngine>> RunToHorizon(const Nfa& nfa, int n,
                                                  const CountOptions& options) {
  NFA_RETURN_NOT_OK(nfa.Validate());
  if (n < 0) return Status::Invalid("n must be >= 0");
  FprasParams params;
  NFA_ASSIGN_OR_RETURN(params, ParamsFromOptions(options, nfa.num_states(), n));
  auto engine = std::make_unique<FprasEngine>(&nfa, params, options.seed);
  NFA_RETURN_NOT_OK(engine->Run());
  return engine;
}

}  // namespace

Result<CountEstimate> ApproxCount(const Nfa& nfa, int n,
                                  const CountOptions& options) {
  std::unique_ptr<FprasEngine> engine;
  NFA_ASSIGN_OR_RETURN(engine, RunToHorizon(nfa, n, options));
  CountEstimate out;
  out.estimate = engine->EstimateAtLength(n);
  out.params = engine->params();
  out.diagnostics = engine->diagnostics();
  return out;
}

Result<std::vector<double>> ApproxCountAllLengths(const Nfa& nfa, int n,
                                                  const CountOptions& options) {
  std::unique_ptr<FprasEngine> engine;
  NFA_ASSIGN_OR_RETURN(engine, RunToHorizon(nfa, n, options));
  std::vector<double> out(static_cast<size_t>(n) + 1, 0.0);
  for (int level = 0; level <= n; ++level) {
    out[static_cast<size_t>(level)] = engine->EstimateAtLength(level);
  }
  return out;
}

}  // namespace nfacount
