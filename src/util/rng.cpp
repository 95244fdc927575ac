// block_rng: the blocked Monte-Carlo kernel's mt19937_64 (see util/rng.h
// for the deviate contract it pins). The implementation splits the twist at
// its wrap points so the lane bodies are branch-free, and twists lazily in
// chunks: a per-trial stream that consumes ~200 draws never pays for the
// full 312-word round the eager std engine generates.
#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/cpu.h"
#include "util/rng_kernels.h"

namespace nwdec {

namespace detail {

const rng_kernel_table* rng_kernel_table_for(cpu::simd_path path) {
  switch (path) {
    case cpu::simd_path::scalar:
      return scalar_rng_kernel_table();
    case cpu::simd_path::avx2:
      return avx2_rng_kernel_table();
    case cpu::simd_path::avx512:
      return avx512_rng_kernel_table();
  }
  return scalar_rng_kernel_table();
}

const rng_kernel_table& active_rng_kernel_table() {
  const rng_kernel_table* table = rng_kernel_table_for(cpu::active_path());
  // cpu::path_compiled gates on exactly these tables, so a compiled path
  // always resolves; null here means the build gating diverged.
  NWDEC_ENSURES(table != nullptr,
                "active SIMD path has no compiled rng-kernel table");
  return *table;
}

}  // namespace detail

namespace {

constexpr std::size_t mt_n = block_rng::state_size;  // 312
constexpr std::size_t mt_m = 156;
constexpr std::uint64_t mt_matrix_a = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t mt_upper = 0xffffffff80000000ULL;
constexpr std::uint64_t mt_lower = 0x000000007fffffffULL;

// Words twisted per lazy chunk: large enough to amortize the call, small
// enough that a ~200-draw trial skips a third of the round.
constexpr std::size_t twist_chunk = 64;

}  // namespace

namespace {

inline std::uint64_t seed_step(std::uint64_t previous, std::uint64_t i) {
  return 6364136223846793005ULL * (previous ^ (previous >> 62)) + i;
}

}  // namespace

void block_rng::seed(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < mt_n; ++i) {
    state_[i] = seed_step(state_[i - 1], static_cast<std::uint64_t>(i));
  }
  index_ = mt_n;
  twisted_ = mt_n;
}

void block_rng::seed_block(block_rng* engines, const std::uint64_t* seeds,
                           std::size_t count) {
  std::size_t e = 0;
  for (; e + 4 <= count; e += 4) {
    std::uint64_t* a = engines[e].state_;
    std::uint64_t* b = engines[e + 1].state_;
    std::uint64_t* c = engines[e + 2].state_;
    std::uint64_t* d = engines[e + 3].state_;
    a[0] = seeds[e];
    b[0] = seeds[e + 1];
    c[0] = seeds[e + 2];
    d[0] = seeds[e + 3];
    for (std::size_t i = 1; i < mt_n; ++i) {
      const std::uint64_t k = static_cast<std::uint64_t>(i);
      a[i] = seed_step(a[i - 1], k);
      b[i] = seed_step(b[i - 1], k);
      c[i] = seed_step(c[i - 1], k);
      d[i] = seed_step(d[i - 1], k);
    }
    for (std::size_t j = 0; j < 4; ++j) {
      engines[e + j].index_ = mt_n;
      engines[e + j].twisted_ = mt_n;
    }
  }
  for (; e < count; ++e) engines[e].seed(seeds[e]);
}

void block_rng::twist_to(std::size_t limit) {
  // ((y & 1) ? matrix_a : 0) as arithmetic so the loop bodies stay
  // branchless: -(y & 1) is all-ones exactly when the low bit is set.
  const auto twisted_word = [](std::uint64_t y, std::uint64_t far) {
    return far ^ (y >> 1) ^ (-(y & 1ULL) & mt_matrix_a);
  };
  std::size_t i = twisted_;
  const std::size_t first_stop = std::min(limit, mt_n - mt_m);
  for (; i < first_stop; ++i) {
    const std::uint64_t y = (state_[i] & mt_upper) | (state_[i + 1] & mt_lower);
    state_[i] = twisted_word(y, state_[i + mt_m]);
  }
  const std::size_t second_stop = std::min(limit, mt_n - 1);
  for (; i < second_stop; ++i) {
    const std::uint64_t y = (state_[i] & mt_upper) | (state_[i + 1] & mt_lower);
    state_[i] = twisted_word(y, state_[i + mt_m - mt_n]);
  }
  if (i < limit) {
    const std::uint64_t y = (state_[mt_n - 1] & mt_upper) |
                            (state_[0] & mt_lower);
    state_[mt_n - 1] = twisted_word(y, state_[mt_m - 1]);
    ++i;
  }
  twisted_ = i;
}

void block_rng::replenish() {
  if (index_ >= mt_n) {
    index_ = 0;
    twisted_ = 0;
  }
  twist_to(std::min(mt_n, twisted_ + twist_chunk));
}

void block_rng::canonical_fill(double* out, std::size_t count,
                               std::size_t stride) {
  // Peek-convert upcoming state words in bulk windows: tempering and the
  // canonical conversion are pure, so a window of words is converted
  // through the dispatched vector kernel and the index advanced by the
  // whole window -- the same values, in the same order, at the same final
  // position as `count` canonical() calls.
  const detail::rng_kernel_table& kernels = detail::active_rng_kernel_table();
  constexpr std::size_t max_chunk = 64;
  double unit[max_chunk];
  std::size_t k = 0;
  while (k < count) {
    if (index_ >= mt_n) {
      index_ = 0;
      twisted_ = 0;
    }
    if (twisted_ <= index_) {
      const std::size_t need = std::min(count - k, twist_chunk);
      twist_to(std::min(mt_n, std::max(twisted_ + 1, index_ + need)));
    }
    const std::size_t window =
        std::min({count - k, twisted_ - index_, max_chunk});
    if (stride == 1) {
      kernels.units_from_words(state_ + index_, window, out + k);
    } else {
      kernels.units_from_words(state_ + index_, window, unit);
      for (std::size_t w = 0; w < window; ++w) {
        out[(k + w) * stride] = unit[w];
      }
    }
    index_ += window;
    k += window;
  }
}

void block_rng::standard_normal_fill(double* out, std::size_t count,
                                     std::size_t stride) {
  // The pinned Marsaglia polar rule (see the class comment): draw x then y,
  // reject until 0 < r2 <= 1, emit y*mult then x*mult. Expressions mirror
  // the std path exactly -- same operations in the same order -- so every
  // emitted double is bit-identical to rng::standard_normal_fill.
  //
  // Structure: tempering and the canonical conversion are pure, so a run
  // of upcoming draws is peek-converted in bulk through the dispatched
  // vector kernels (util/rng_kernels.h) and the candidate pairs' rejection
  // radii are precomputed; a compress-store pass then packs the accepted
  // pairs densely, so the log/sqrt runs over a branchless dense array and
  // only for pairs actually emitted. State advances by exactly the pairs
  // consumed -- a draw-for-draw match with the one-at-a-time path,
  // including the engine position the trial's tail draws continue from.
  const detail::rng_kernel_table& kernels = detail::active_rng_kernel_table();
  constexpr std::size_t max_words = 64;
  double px[max_words / 2], py[max_words / 2], pr2[max_words / 2];
  double ax[max_words / 2], ay[max_words / 2], ar2[max_words / 2];
  double am[max_words / 2];
  std::size_t apos[max_words / 2];

  std::size_t k = 0;
  while (k < count) {
    // Peek/twist budget: expected draws for the remaining pairs (two per
    // attempt, ~4/pi attempts per accepted pair) plus slack. An
    // underestimate just loops again; without the cap the last window
    // tempers and converts ~25 words the fill never consumes.
    const std::size_t budget = ((count - k + 1) / 2) * 3 + 4;
    if (index_ >= mt_n) {
      index_ = 0;
      twisted_ = 0;
    }
    if (twisted_ - index_ < 2 && twisted_ < mt_n) {
      const std::size_t want =
          std::min(index_ + budget, twisted_ + twist_chunk);
      twist_to(std::min(mt_n, std::max(twisted_ + 2, want)));
    }
    if (twisted_ - index_ < 2) {
      // A lone word at the end of the twist round: the pair spans the
      // round boundary, so take it through the one-draw path (next()
      // handles the wrap) and loop.
      const double x = 2.0 * canonical() - 1.0;
      const double y = 2.0 * canonical() - 1.0;
      const double r2 = x * x + y * y;
      if (r2 > 1.0 || r2 == 0.0) continue;
      const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
      out[k * stride] = y * mult;
      ++k;
      if (k < count) {
        out[k * stride] = x * mult;
        ++k;
      }
      continue;
    }

    const std::size_t words = std::min(
        {max_words, (twisted_ - index_) & ~std::size_t{1},
         std::max<std::size_t>(2, budget & ~std::size_t{1})});
    const std::size_t pairs = words / 2;
    kernels.pairs_from_words(state_ + index_, pairs, px, py, pr2);

    // Compress-store acceptance: every slot is written unconditionally and
    // the acceptance test is just the cursor increment, so the loop is
    // branch-free; apos remembers each accepted pair's window position for
    // the consumption accounting below.
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double r2 = pr2[p];
      ax[accepted] = px[p];
      ay[accepted] = py[p];
      ar2[accepted] = r2;
      apos[accepted] = p;
      accepted += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
    }
    const std::size_t need_pairs = (count - k + 1) / 2;
    const std::size_t use = accepted < need_pairs ? accepted : need_pairs;
    for (std::size_t a = 0; a < use; ++a) {
      am[a] = std::sqrt(-2.0 * std::log(ar2[a]) / ar2[a]);
    }
    for (std::size_t a = 0; a < use; ++a) {
      out[k * stride] = ay[a] * am[a];
      ++k;
      if (k < count) {
        out[k * stride] = ax[a] * am[a];
        ++k;
      }
    }
    // The one-at-a-time path consumes pairs up to and including the one
    // that completes `count` (trailing rejects stay unconsumed); when
    // acceptance ran dry first it swept the whole window.
    const std::size_t consumed =
        use == need_pairs ? apos[use - 1] + 1 : pairs;
    index_ += 2 * consumed;
  }
}

void standard_normal_block(std::uint64_t key, std::uint64_t first,
                           std::size_t trials, std::size_t count,
                           double* lanes, std::size_t lane_stride,
                           block_rng* tails) {
  NWDEC_EXPECTS(lane_stride >= trials,
                "deviate block lane stride must cover every trial lane");
  if (tails != nullptr) {
    // Interleaved bulk seeding first (see seed_block), then one fill pass.
    std::uint64_t seeds[64];
    for (std::size_t t0 = 0; t0 < trials; t0 += 64) {
      const std::size_t n = std::min<std::size_t>(64, trials - t0);
      for (std::size_t t = 0; t < n; ++t) {
        seeds[t] = rng::counter_seed(key, first + t0 + t);
      }
      block_rng::seed_block(tails + t0, seeds, n);
    }
    for (std::size_t t = 0; t < trials; ++t) {
      tails[t].standard_normal_fill(lanes + t, count, lane_stride);
    }
    return;
  }
  block_rng local;
  for (std::size_t t = 0; t < trials; ++t) {
    local.seed(rng::counter_seed(key, first + t));
    local.standard_normal_fill(lanes + t, count, lane_stride);
  }
}

}  // namespace nwdec