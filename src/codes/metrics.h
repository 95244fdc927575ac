// Code-space metrics: the structural properties the decoder analysis
// consumes -- transition statistics, per-digit balance, and the antichain
// property that guarantees unique addressability.
#pragma once

#include <cstddef>
#include <vector>

#include "codes/code_space.h"
#include "codes/word.h"

namespace nwdec::codes {

/// Summary of the transition structure of an arranged sequence.
struct transition_stats {
  std::size_t total = 0;            ///< sum of transitions over the sequence
  double mean_per_step = 0.0;       ///< total / (steps)
  std::size_t max_per_step = 0;     ///< worst single step
  std::vector<std::size_t> per_digit;  ///< how often each digit changes
  std::size_t digit_spread = 0;     ///< max - min of per_digit
};

/// Computes transition statistics of `sequence`; `cyclic` includes the
/// wrap-around step.
transition_stats analyze_transitions(const std::vector<code_word>& sequence,
                                     bool cyclic);

/// True when no word of `words` is componentwise <= another (distinct)
/// word. Under the threshold-conduction rule this is exactly the condition
/// for every word to address one and only one nanowire pattern.
///
/// Proved in O(Omega*M + Omega log Omega) when the words are distinct and
/// share one shape and one digit sum (share_one_digit_sum): a <= b digit by
/// digit with sum(a) == sum(b) forces a == b. Every factory family passes
/// that test -- hot codes by definition, and a reflected word w+complement
/// sums to (radix-1)*M/2. Any other input falls back to
/// is_antichain_pairwise, so the verdict is the same either way.
bool is_antichain(const std::vector<code_word>& words);

/// The antichain property by definition: every ordered pair of words is
/// compared, O(Omega^2 * M). is_antichain's fallback and its test oracle.
bool is_antichain_pairwise(const std::vector<code_word>& words);

/// True when every word has the radix, length and digit sum of the first
/// (vacuously true for no words). Together with all_distinct, a proof that
/// the words form an antichain.
bool share_one_digit_sum(const std::vector<code_word>& words);

/// True when all words are pairwise distinct.
bool all_distinct(const std::vector<code_word>& words);

/// Validates that `c` is internally consistent: words all share the
/// declared radix/length, are distinct, and form an antichain (reflected
/// tree-family codes and hot codes both must). The words are sorted once,
/// for the distinctness check; the antichain is then proved by digit sum,
/// or by the pairwise loop for a code whose words do not share one. Throws
/// logic_invariant_error with a description on failure; returns normally
/// otherwise.
void validate_code(const code& c);

}  // namespace nwdec::codes
