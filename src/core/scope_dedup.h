#ifndef TRILLIONG_CORE_SCOPE_DEDUP_H_
#define TRILLIONG_CORE_SCOPE_DEDUP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/common.h"

namespace tg::core {

/// Per-scope duplicate eliminator with two representations, picked per scope
/// by size:
///
///  * sparse scopes (the overwhelming majority under a power-law seed) use a
///    stamped open-addressing table sized for a load of at most 1/4 — O(d)
///    memory for a degree-d scope, and short probe runs;
///  * dense scopes, where the sampled degree exceeds 1/256 of the scope's
///    reachable destination range, use a plain bitmap over [0, |V|). For a
///    power-of-two |V| >= 1024 that is exactly where the bitmap's |V|/8
///    bytes are smaller than the table would be, so no scope holds more
///    than max(|V|/8, 128) bytes; Insert is then a branch-free test-and-set
///    with no probe chains.
///
/// The mode depends only on (degree, universe), both of which are derived
/// from the scope's own RNG stream, so the choice — and therefore the
/// generated graph — is independent of worker count and chunking.
///
/// Both backing stores persist across Reset calls (capacity is never
/// released), so a per-worker instance reused for millions of scopes
/// allocates only on high-water marks. Clearing is lazy per mode:
///
///  * a sparse slot holds `v << 16 | stamp`, and a slot whose stamp is not
///    the current scope's is empty. Reset bumps the stamp — O(1), with one
///    full wipe every 65535 sparse scopes when the stamp wraps. Vertex ids
///    are below 2^48 (kMaxScale), so the shifted id never loses a bit;
///  * a dense scope wipes only the words it actually dirtied (a touched-word
///    log) — O(d) per scope, never O(|V|/64). WipeDirty() does it as the
///    scope ends; a dense Reset wipes whatever a caller left dirty.
///    wiped_words() counts the wiped words cumulatively so tests can pin
///    this down.
class ScopeDedup {
 public:
  /// A scope is dense above universe/256 distinct destinations: its table
  /// (4 slots per entry) would then be larger than the bitmap (1 bit per
  /// vertex).
  static constexpr std::uint64_t kDenseDivisor = 256;
  /// Largest sparse stamp; the 16 low bits of a slot.
  static constexpr std::uint32_t kMaxStamp = 0xFFFF;
  /// InsertBlock's `skip` when no candidate is to be dropped (no vertex id
  /// reaches 2^48).
  static constexpr VertexId kNoSkip = ~VertexId{0};

  ScopeDedup() { Reset(0, 0); }

  /// Clears the structure and picks the representation for a scope expected
  /// to hold at most `degree` distinct destinations drawn from
  /// [0, universe).
  void Reset(std::uint64_t degree, VertexId universe) {
    dense_ = universe != 0 && degree > universe / kDenseDivisor;
    if (dense_) {
      words_ = static_cast<std::size_t>((universe + 63) / 64);
      // Fresh words come zeroed from the resize; previously dirtied words
      // are wiped from the touched log — the only O(words_) cost is the
      // one-time high-water-mark growth.
      if (bits_.size() < words_) bits_.resize(words_, 0);
      WipeDirty();
    } else {
      // This scope probes only its own power-of-two prefix of the table,
      // sized for a load of at most 1/4 once all `degree` values are in.
      int bits = 4;
      while ((std::uint64_t{1} << bits) < 4 * degree) ++bits;
      const std::size_t cap = std::size_t{1} << bits;
      if (slots_.size() < cap) slots_.resize(cap, 0);
      mask_ = cap - 1;
      hash_shift_ = 64 - bits;
      // Stamp 0 never matches (fresh slots hold 0), so a wrap wipes the
      // table and restarts at 1.
      if (++stamp_ > kMaxStamp) {
        std::fill(slots_.begin(), slots_.end(), 0);
        stamp_ = 1;
      }
    }
    size_ = 0;
  }

  /// Inserts `v`; returns true if it was newly added. The one-value form of
  /// InsertBlock, for callers that test candidates one at a time; the tests
  /// also use it as InsertBlock's per-candidate reference.
  [[gnu::always_inline]] bool Insert(VertexId v) {
    if (dense_) {
      std::uint64_t& word = bits_[static_cast<std::size_t>(v >> 6)];
      // A zero word cannot be in the touched log (entries are logged on the
      // 0 -> nonzero transition and stay nonzero until the next dense
      // Reset wipes them), so this logs each word at most once.
      if (word == 0) dirty_.push_back(static_cast<std::size_t>(v >> 6));
      const std::uint64_t mask = std::uint64_t{1} << (v & 63);
      if ((word & mask) != 0) return false;
      word |= mask;
      ++size_;
      return true;
    }
    TG_DCHECK(v < (VertexId{1} << 48));
    const std::uint64_t key = v << 16 | stamp_;
    // Fibonacci hashing: the top bits of the product mix every id bit.
    std::size_t i =
        static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> hash_shift_);
    while (true) {
      const std::uint64_t slot = slots_[i];
      if (slot == key) return false;
      if ((slot & kMaxStamp) != stamp_) {
        slots_[i] = key;
        ++size_;
        TG_DCHECK(size_ * 4 <= mask_ + 1);
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Inserts the candidates cand[0..m) in order, except any equal to
  /// `skip` (kNoSkip drops none), and appends each newly added value to
  /// `adj` in first-occurrence order; returns how many it appended. Writes
  /// stay within adj[0..m). Same result as calling Insert per candidate,
  /// but the table state lives in locals, so the `adj` stores (which may
  /// alias the members as far as the compiler knows) force no reloads.
  [[gnu::always_inline]] std::size_t InsertBlock(const VertexId* cand,
                                                 std::size_t m, VertexId* adj,
                                                 VertexId skip) {
    std::size_t k = 0;
    if (dense_) {
      std::uint64_t* const bits = bits_.data();
      // Room to log every candidate's word; a word is kept in the log only
      // on its first bit (see Insert), so the log stays branch-free.
      const std::size_t logged = dirty_.size();
      dirty_.resize(logged + m);
      std::size_t* const log = dirty_.data() + logged;
      std::size_t nlog = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const VertexId v = cand[i];
        if (v == skip) continue;
        const std::size_t w = static_cast<std::size_t>(v >> 6);
        const std::uint64_t word = bits[w];
        log[nlog] = w;
        nlog += word == 0 ? 1 : 0;
        const std::uint64_t bit = std::uint64_t{1} << (v & 63);
        bits[w] = word | bit;
        adj[k] = v;
        k += (word & bit) == 0 ? 1 : 0;
      }
      dirty_.resize(logged + nlog);
    } else {
      std::uint64_t* const slots = slots_.data();
      const std::size_t mask = mask_;
      const int shift = hash_shift_;
      const std::uint64_t stamp = stamp_;
      for (std::size_t i = 0; i < m; ++i) {
        const VertexId v = cand[i];
        if (v == skip) continue;
        TG_DCHECK(v < (VertexId{1} << 48));
        const std::uint64_t key = v << 16 | stamp;
        std::size_t j =
            static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> shift);
        std::uint64_t slot = slots[j];
        // Walk past slots this scope holds for other values; stop on v's
        // slot (a duplicate) or on a free one.
        while (slot != key && (slot & kMaxStamp) == stamp) {
          j = (j + 1) & mask;
          slot = slots[j];
        }
        if (slot != key) {
          slots[j] = key;
          adj[k++] = v;
        }
      }
      TG_DCHECK((size_ + k) * 4 <= mask_ + 1);
    }
    size_ += k;
    return k;
  }

  /// Zeroes the bitmap words logged since the last wipe and counts them in
  /// wiped_words(); a no-op after a sparse scope. Calling it as each dense
  /// scope ends charges every scope's wipe to that scope, so the count does
  /// not depend on which scopes shared this instance.
  void WipeDirty() {
    for (std::size_t w : dirty_) bits_[w] = 0;
    wiped_words_ += dirty_.size();
    dirty_.clear();
  }

  std::size_t size() const { return size_; }
  bool dense() const { return dense_; }

  /// Cumulative count of bitmap words zeroed by WipeDirty. With lazy
  /// clearing this tracks inserted entries, not scopes * |V|/64; the
  /// generator_test regression assertion relies on exactly that.
  std::uint64_t wiped_words() const { return wiped_words_; }

  /// Bytes of the active representation: the bitmap, or this scope's
  /// slice of the stamped table. Constant between Resets. (The other
  /// representation's retained capacity is idle scratch, charged once per
  /// worker, not per scope.)
  std::size_t MemoryBytes() const {
    return (dense_ ? words_ : mask_ + 1) * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> slots_;  ///< sparse: v << 16 | stamp
  std::size_t mask_ = 0;              ///< this scope's capacity - 1
  int hash_shift_ = 64;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<std::size_t> dirty_;  ///< words dirtied since the last wipe
  std::size_t words_ = 0;
  std::size_t size_ = 0;
  std::uint64_t wiped_words_ = 0;
  bool dense_ = false;
};

}  // namespace tg::core

#endif  // TRILLIONG_CORE_SCOPE_DEDUP_H_
