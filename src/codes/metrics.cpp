#include "codes/metrics.h"

#include <algorithm>

#include "codes/arrangement.h"
#include "util/error.h"

namespace nwdec::codes {

transition_stats analyze_transitions(const std::vector<code_word>& sequence,
                                     bool cyclic) {
  NWDEC_EXPECTS(!sequence.empty(), "cannot analyze an empty sequence");
  transition_stats stats;
  stats.per_digit = per_digit_transitions(sequence, cyclic);
  stats.total = total_transitions(sequence, cyclic);

  const std::size_t steps =
      sequence.size() < 2 ? 0 : sequence.size() - (cyclic ? 0 : 1);
  stats.mean_per_step =
      steps == 0 ? 0.0
                 : static_cast<double>(stats.total) / static_cast<double>(steps);

  for (std::size_t i = 0; i + 1 < sequence.size(); ++i) {
    stats.max_per_step = std::max(
        stats.max_per_step, sequence[i].transitions_to(sequence[i + 1]));
  }
  if (cyclic && sequence.size() > 1) {
    stats.max_per_step = std::max(
        stats.max_per_step, sequence.back().transitions_to(sequence.front()));
  }

  if (!stats.per_digit.empty()) {
    const auto [lo, hi] =
        std::minmax_element(stats.per_digit.begin(), stats.per_digit.end());
    stats.digit_spread = *hi - *lo;
  }
  return stats;
}

bool is_antichain_pairwise(const std::vector<code_word>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = 0; j < words.size(); ++j) {
      if (i == j) continue;
      if (words[i].componentwise_le(words[j])) return false;
    }
  }
  return true;
}

bool share_one_digit_sum(const std::vector<code_word>& words) {
  if (words.empty()) return true;
  const code_word& first = words.front();
  const std::size_t sum = first.digit_sum();
  return std::all_of(words.begin(), words.end(), [&](const code_word& w) {
    return w.radix() == first.radix() && w.length() == first.length() &&
           w.digit_sum() == sum;
  });
}

bool is_antichain(const std::vector<code_word>& words) {
  if (share_one_digit_sum(words) && all_distinct(words)) return true;
  return is_antichain_pairwise(words);
}

bool all_distinct(const std::vector<code_word>& words) {
  // Sorts addresses, not words: a copy of the words would allocate one
  // digit vector per word.
  std::vector<const code_word*> order;
  order.reserve(words.size());
  for (const code_word& w : words) order.push_back(&w);
  std::sort(order.begin(), order.end(),
            [](const code_word* a, const code_word* b) { return *a < *b; });
  return std::adjacent_find(order.begin(), order.end(),
                            [](const code_word* a, const code_word* b) {
                              return *a == *b;
                            }) == order.end();
}

void validate_code(const code& c) {
  NWDEC_ENSURES(!c.words.empty(), "code has no words");
  for (const code_word& w : c.words) {
    NWDEC_ENSURES(w.radix() == c.radix, "word radix differs from code radix");
    NWDEC_ENSURES(w.length() == c.length,
                  "word length differs from code length");
  }
  NWDEC_ENSURES(all_distinct(c.words), "code words are not distinct");
  // The words are distinct now, so one digit sum proves the antichain;
  // only a code without one pays for the pairwise loop.
  NWDEC_ENSURES(
      share_one_digit_sum(c.words) || is_antichain_pairwise(c.words),
      "code is not an antichain: some address would select multiple "
      "nanowires");
}

}  // namespace nwdec::codes
