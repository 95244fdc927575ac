#include "decoder/addressing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "codes/factory.h"
#include "codes/tree_code.h"
#include "decoder/pattern_matrix.h"
#include "device/tech_params.h"
#include "util/cpu.h"
#include "util/error.h"
#include "util/rng.h"

namespace nwdec::decoder {
namespace {

using codes::parse_word;

TEST(ConductionTest, DigitRuleIsComponentwiseLe) {
  EXPECT_TRUE(conducts(parse_word(3, "0102"), parse_word(3, "0112")));
  EXPECT_FALSE(conducts(parse_word(3, "0120"), parse_word(3, "0110")));
  EXPECT_TRUE(conducts(parse_word(3, "0000"), parse_word(3, "2222")));
}

TEST(ConductionTest, VoltageRuleRequiresEveryRegionOn) {
  const std::vector<double> vt = {0.3, 0.6};
  EXPECT_TRUE(conducts(vt, {0.5, 0.9}));
  EXPECT_FALSE(conducts(vt, {0.5, 0.6}));  // gate == threshold blocks
  EXPECT_FALSE(conducts(vt, {0.2, 0.9}));
  EXPECT_THROW(conducts(vt, {0.5}), invalid_argument_error);
}

TEST(ConductionTest, DriveVoltagesImplementTheDigitRule) {
  // Nominal thresholds + drive pattern must reproduce the digit rule for
  // every pattern/address pair of a small space.
  const device::vt_levels levels(3, device::paper_technology());
  const codes::code gc = codes::make_code(codes::code_type::gray, 3, 4);
  for (const codes::code_word& pattern : gc.words) {
    std::vector<double> realized;
    for (std::size_t j = 0; j < pattern.length(); ++j) {
      realized.push_back(levels.level(pattern.at(j)));
    }
    for (const codes::code_word& address : gc.words) {
      EXPECT_EQ(conducts(realized, drive_pattern(address, levels)),
                conducts(pattern, address))
          << pattern.to_string() << " @ " << address.to_string();
    }
  }
}

TEST(ConductionTest, DrivePatternChecksRadix) {
  const device::vt_levels levels(2, device::paper_technology());
  EXPECT_THROW(drive_pattern(parse_word(3, "012"), levels),
               invalid_argument_error);
}

TEST(ConductionTest, SpanFormMatchesVectorForm) {
  const std::vector<double> vt = {0.3, 0.6, 0.1};
  const std::vector<std::vector<double>> gates = {
      {0.5, 0.9, 0.2}, {0.5, 0.6, 0.2}, {0.2, 0.9, 0.2}, {0.5, 0.9, 0.1}};
  for (const auto& gate : gates) {
    EXPECT_EQ(conducts(vt.data(), gate.data(), vt.size()),
              conducts(vt, gate));
  }
}

TEST(ConductionTest, DrivePatternIntoReusesTheBuffer) {
  const device::vt_levels levels(3, device::paper_technology());
  std::vector<double> buffer;
  drive_pattern_into(parse_word(3, "012"), levels, buffer);
  EXPECT_EQ(buffer, drive_pattern(parse_word(3, "012"), levels));
  // A second call reshapes in place (shorter word, same storage).
  drive_pattern_into(parse_word(3, "20"), levels, buffer);
  EXPECT_EQ(buffer, drive_pattern(parse_word(3, "20"), levels));
  EXPECT_THROW(drive_pattern_into(parse_word(2, "01"), levels, buffer),
               invalid_argument_error);
}

TEST(AddressedRowsTest, RejectsMismatchedRadix) {
  const codes::code gc = codes::make_code(codes::code_type::gray, 2, 6);
  const matrix<codes::digit> p = pattern_matrix(gc, gc.size());
  EXPECT_THROW(addressed_rows(p, 2, parse_word(3, "000000")),
               invalid_argument_error);
}

TEST(AddressedRowsTest, FindsExactlyTheSelectedNanowire) {
  const codes::code gc = codes::make_code(codes::code_type::gray, 2, 6);
  const matrix<codes::digit> p = pattern_matrix(gc, gc.size());
  for (std::size_t i = 0; i < gc.size(); ++i) {
    const std::vector<std::size_t> rows =
        addressed_rows(p, 2, gc.words[i]);
    ASSERT_EQ(rows.size(), 1u) << i;
    EXPECT_EQ(rows[0], i);
  }
}

TEST(AddressedRowsTest, CyclicReuseAddressesOnePerPeriod) {
  // With N = 2 * Omega the same address selects one nanowire per period --
  // which is why contact groups must separate the periods.
  const codes::code hc = codes::make_code(codes::code_type::hot, 2, 4);
  const matrix<codes::digit> p = pattern_matrix(hc, 2 * hc.size());
  const std::vector<std::size_t> rows = addressed_rows(p, 2, hc.words[3]);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0] % hc.size(), 3u);
  EXPECT_EQ(rows[1] % hc.size(), 3u);
}

class UniqueAddressabilityTest
    : public ::testing::TestWithParam<std::tuple<codes::code_type, unsigned,
                                                 std::size_t>> {};

TEST_P(UniqueAddressabilityTest, EveryFactoryCodeIsUniquelyAddressable) {
  const auto [type, radix, length] = GetParam();
  const codes::code c = codes::make_code(type, radix, length);
  EXPECT_TRUE(uniquely_addressable(c.words));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UniqueAddressabilityTest,
    ::testing::Values(
        std::make_tuple(codes::code_type::tree, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::gray, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::balanced_gray, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::hot, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::arranged_hot, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::gray, 3u, std::size_t{6}),
        std::make_tuple(codes::code_type::hot, 3u, std::size_t{6})),
    [](const auto& info) {
      return codes::code_type_name(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_M" +
             std::to_string(std::get<2>(info.param));
    });

TEST(UniqueAddressabilityTest, UnreflectedTreeCodeFails) {
  // 000 conducts under every address: not uniquely addressable.
  EXPECT_FALSE(uniquely_addressable(codes::tree_code_words(2, 3)));
}

TEST(AddressTableTest, SelectRoundTrip) {
  const codes::code ahc = codes::make_code(codes::code_type::arranged_hot, 2, 6);
  const address_table table(ahc.words);
  EXPECT_EQ(table.size(), 20u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto selected = table.select(table.address_of(i));
    ASSERT_TRUE(selected.has_value());
    EXPECT_EQ(*selected, i);
  }
}

TEST(AddressTableTest, ForeignAddressSelectsNothing) {
  const codes::code hc = codes::make_code(codes::code_type::hot, 2, 4);
  std::vector<codes::code_word> half(hc.words.begin(), hc.words.begin() + 3);
  const address_table table(half);
  // An address from the removed half must not select anything.
  EXPECT_FALSE(table.select(hc.words[5]).has_value());
}

TEST(AddressTableTest, NonAntichainInputRejected) {
  EXPECT_THROW(address_table(codes::tree_code_words(2, 3)),
               invalid_argument_error);
  EXPECT_THROW(address_table({}), invalid_argument_error);
}

// --- classify kernels and the contact-group rule on lane masks: every
// lane bit must equal the scalar rule on that lane's realized row.

// A random trial block: cell k = r * regions + j of lane t holds the
// deviate deviates[k * lane_stride + t] and realizes
// vt = nominal[k] + (sigma * noise_scale[k]) * z, the engine's expression.
// Row r is addressed by pattern row r (digits < radix); digit d drives
// drive[d].
struct lane_fixture {
  std::size_t rows, regions, lanes, lane_stride;
  unsigned radix;
  double sigma = 0.05;
  std::vector<double> deviates, nominal, noise_scale, drive;
  std::vector<codes::digit> pattern;

  lane_fixture(std::size_t rows, std::size_t regions, std::size_t lanes,
               std::uint64_t seed, unsigned radix = 2,
               std::size_t extra_stride = 0)
      : rows(rows),
        regions(regions),
        lanes(lanes),
        lane_stride(lanes + extra_stride),
        radix(radix),
        deviates(rows * regions * lane_stride),
        nominal(rows * regions),
        noise_scale(rows * regions),
        drive(radix),
        pattern(rows * regions) {
    rng random(seed);
    // Thresholds and drives overlap so every comparison outcome occurs.
    for (double& z : deviates) z = random.uniform(-3.0, 3.0);
    for (double& v : nominal) v = random.uniform(0.0, 1.0);
    for (double& v : noise_scale) v = random.uniform(0.5, 2.5);
    for (double& v : drive) v = random.uniform(0.0, 1.0);
    for (codes::digit& d : pattern) {
      d = static_cast<codes::digit>(random.engine()() % radix);
    }
  }

  std::size_t cells() const { return rows * regions; }
  std::size_t words() const { return mask_words(lanes); }

  double vt(std::size_t row, std::size_t j, std::size_t t) const {
    const std::size_t k = row * regions + j;
    return nominal[k] + (sigma * noise_scale[k]) * deviates[k * lane_stride + t];
  }

  std::vector<double> lane_row(std::size_t row, std::size_t t) const {
    std::vector<double> out(regions);
    for (std::size_t j = 0; j < regions; ++j) out[j] = vt(row, j, t);
    return out;
  }

  // The mesowire voltages of row `address`'s own address.
  std::vector<double> drive_row(std::size_t address) const {
    std::vector<double> out(regions);
    for (std::size_t j = 0; j < regions; ++j) {
      out[j] = drive[pattern[address * regions + j]];
    }
    return out;
  }

  // Scalar operational rule among `members`: `self` conducts under its
  // address in lane t and no other member does.
  bool addressable(std::size_t self, const std::vector<std::size_t>& members,
                   std::size_t t) const {
    const std::vector<double> gate = drive_row(self);
    if (!conducts(lane_row(self, t).data(), gate.data(), regions)) {
      return false;
    }
    for (const std::size_t other : members) {
      if (other == self) continue;
      if (conducts(lane_row(other, t).data(), gate.data(), regions)) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::uint64_t> conduction() const {
    std::vector<std::uint64_t> masks(words() * cells() * radix, 0xdead);
    conduction_masks(deviates.data(), lane_stride, lanes, cells(),
                     nominal.data(), noise_scale.data(), sigma, drive.data(),
                     radix, masks.data());
    return masks;
  }

  // Runs addressable_masks on mask word w of every row in `live`.
  void decide(const std::vector<std::uint64_t>& masks, std::size_t w,
              const std::vector<std::size_t>& members,
              std::uint64_t* live) const {
    matrix<codes::digit> rows_digits(rows, regions);
    std::copy(pattern.begin(), pattern.end(), rows_digits.row_ptr(0));
    const std::vector<std::uint32_t> selectors =
        address_selectors(rows_digits, radix);
    addressable_masks(masks.data() + w * cells() * radix, selectors.data(),
                      regions, radix, members.data(), members.size(), live);
  }
};

bool lane_bit(std::uint64_t word, std::size_t t) {
  return ((word >> (t % 64)) & 1) != 0;
}

TEST(ConductsBlockTest, MatchesScalarRuleLaneByLane) {
  // conduction_masks: every (cell, digit) bit is the scalar comparison,
  // the masks a row's own address selects AND to the scalar voltage rule,
  // and no bit is set past the block's last lane.
  for (const unsigned radix : {2u, 3u}) {
    for (const std::size_t regions : {1UL, 5UL}) {
      for (const std::size_t lanes :
           {1UL, 3UL, 8UL, 33UL, 63UL, 64UL, 65UL, 128UL}) {
        lane_fixture f(2, regions, lanes, 101 + regions * lanes + radix,
                       radix, 3);
        const std::vector<std::uint64_t> masks = f.conduction();
        const std::size_t plane = f.cells() * radix;
        for (std::size_t t = 0; t < lanes; ++t) {
          const std::uint64_t* word = masks.data() + (t / 64) * plane;
          for (std::size_t k = 0; k < f.cells(); ++k) {
            for (unsigned d = 0; d < radix; ++d) {
              EXPECT_EQ(lane_bit(word[k * radix + d], t),
                        f.drive[d] - f.vt(k / regions, k % regions, t) > 0.0)
                  << "cell " << k << " digit " << d << " lane " << t;
            }
          }
          bool selected = true;
          for (std::size_t j = 0; j < regions; ++j) {
            const codes::digit d = f.pattern[1 * regions + j];
            selected = selected &&
                       lane_bit(word[(1 * regions + j) * radix + d], t);
          }
          const std::vector<double> gate = f.drive_row(1);
          EXPECT_EQ(selected,
                    conducts(f.lane_row(1, t).data(), gate.data(), regions))
              << "lanes " << lanes << " lane " << t;
        }
        for (std::size_t w = 0; w < f.words(); ++w) {
          const std::uint64_t past = ~lane_bits(lanes - 64 * w);
          for (std::size_t k = 0; k < plane; ++k) {
            EXPECT_EQ(masks[w * plane + k] & past, 0u)
                << "lanes " << lanes << " word " << w;
          }
        }
      }
    }
  }
}

TEST(AddressableBlockTest, MatchesScalarGroupRule) {
  // Every member's verdict is the scalar operational rule, restricted to
  // the lanes it entered with; members entering dead still veto.
  const std::size_t rows = 6, regions = 4;
  const std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  for (const unsigned radix : {2u, 3u}) {
    for (const std::size_t lanes : {17UL, 65UL}) {
      lane_fixture f(rows, regions, lanes, 7 + radix, radix);
      const std::vector<std::uint64_t> masks = f.conduction();
      rng random(lanes);
      for (std::size_t w = 0; w < f.words(); ++w) {
        const std::uint64_t all = lane_bits(lanes - 64 * w);
        for (const bool thinned : {false, true}) {
          std::vector<std::uint64_t> entered(rows, all);
          // Thinned: some rows enter dead, the rest with random survivors.
          if (thinned) {
            for (std::uint64_t& word : entered) {
              word = random.uniform() < 0.3 ? 0 : random.engine()() & all;
            }
          }
          std::vector<std::uint64_t> live = entered;
          f.decide(masks, w, members, live.data());
          for (std::size_t self = 0; self < rows; ++self) {
            for (std::size_t t = 64 * w; t < std::min(lanes, 64 * w + 64);
                 ++t) {
              const bool expected =
                  lane_bit(entered[self], t) && f.addressable(self, members, t);
              EXPECT_EQ(lane_bit(live[self], t), expected)
                  << "radix " << radix << " self " << self << " lane " << t;
            }
            EXPECT_EQ(live[self] & ~all, 0u);
          }
        }
      }
    }
  }
}

TEST(AddressableBlockTest, EmptyAndSelfOnlyGroups) {
  const std::size_t regions = 3, lanes = 5;
  lane_fixture f(2, regions, lanes, 99);
  const std::vector<std::uint64_t> masks = f.conduction();
  // No members at all: nothing is decided, every live word stays as is.
  std::vector<std::uint64_t> untouched(2, lane_bits(lanes));
  f.decide(masks, 0, {}, untouched.data());
  EXPECT_EQ(untouched, std::vector<std::uint64_t>(2, lane_bits(lanes)));
  // A group whose only member is the addressee: the verdict is the bare
  // self conduction, and the other row is not touched.
  std::vector<std::uint64_t> self_only(2, lane_bits(lanes));
  f.decide(masks, 0, {0}, self_only.data());
  const std::vector<double> gate = f.drive_row(0);
  for (std::size_t t = 0; t < lanes; ++t) {
    EXPECT_EQ(lane_bit(self_only[0], t),
              conducts(f.lane_row(0, t).data(), gate.data(), regions))
        << "lane " << t;
  }
  EXPECT_EQ(self_only[1], lane_bits(lanes));
}

TEST(AddressableGroupBlockTest, MatchesPerMemberBlocks) {
  // One pass over the whole group equals one pass per member (only that
  // member entering alive), and both equal the scalar rule. The group
  // skips row 3: member lists need not cover every row, and a row outside
  // the group neither vetoes nor is decided.
  for (const std::size_t regions : {1UL, 4UL}) {
    const std::size_t rows = 7, lanes = 9;
    lane_fixture f(rows, regions, lanes, 1234 + regions);
    const std::vector<std::uint64_t> masks = f.conduction();
    const std::vector<std::size_t> members = {0, 1, 2, 4, 5, 6};
    std::vector<std::uint64_t> group(rows, lane_bits(lanes));
    f.decide(masks, 0, members, group.data());
    EXPECT_EQ(group[3], lane_bits(lanes));
    for (const std::size_t self : members) {
      std::vector<std::uint64_t> single(rows, 0);
      single[self] = lane_bits(lanes);
      f.decide(masks, 0, members, single.data());
      EXPECT_EQ(single[self], group[self]) << "member " << self;
      for (std::size_t t = 0; t < lanes; ++t) {
        EXPECT_EQ(lane_bit(group[self], t), f.addressable(self, members, t))
            << "member " << self << " lane " << t;
      }
    }
  }
}

TEST(AddressableGroupBlockTest, AllBlockedGroupZeroesEveryLane) {
  const std::size_t rows = 3, regions = 2, lanes = 6;
  lane_fixture f(rows, regions, lanes, 4);
  // Drive far below every threshold: nothing conducts anywhere.
  for (double& v : f.drive) v = -10.0;
  const std::vector<std::uint64_t> masks = f.conduction();
  for (const std::uint64_t word : masks) EXPECT_EQ(word, 0u);
  std::vector<std::uint64_t> live(rows, lane_bits(lanes));
  f.decide(masks, 0, {0, 1, 2}, live.data());
  for (const std::uint64_t word : live) EXPECT_EQ(word, 0u);
}

TEST(WindowMarginBlockTest, MatchesScalarWindowRule) {
  // window_masks: a nanowire's lane bit equals the scalar two-sided check
  // on its realized row, with the -infinity low guard exempting digit-0
  // regions from the lower bound; no bit is set past the last lane.
  const std::size_t rows = 2, regions = 4;
  const double whw = 0.05;
  for (const std::size_t lanes : {13UL, 64UL, 65UL, 128UL}) {
    lane_fixture f(rows, regions, lanes, 321 + lanes, 2, 3);
    // Deltas straddling both bounds so every outcome is exercised.
    for (double& v : f.noise_scale) v = 1.0;
    for (double& z : f.deviates) z *= 0.7;
    std::vector<double> low_guard(rows * regions, -whw);
    // Region 2 plays digit 0: lower bound exempt.
    for (std::size_t r = 0; r < rows; ++r) {
      low_guard[r * regions + 2] = -std::numeric_limits<double>::infinity();
    }
    std::vector<std::uint64_t> masks(f.words() * rows, 0xdead);
    window_masks(f.deviates.data(), f.lane_stride, lanes, rows, regions,
                 f.nominal.data(), f.noise_scale.data(), f.sigma,
                 low_guard.data(), whw, masks.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < lanes; ++t) {
        bool expected = true;
        for (std::size_t j = 0; j < regions; ++j) {
          const double delta = f.vt(r, j, t) - f.nominal[r * regions + j];
          if (delta >= whw) expected = false;
          if (j != 2 && delta <= -whw) expected = false;
        }
        EXPECT_EQ(lane_bit(masks[(t / 64) * rows + r], t), expected)
            << "lanes " << lanes << " row " << r << " lane " << t;
      }
      for (std::size_t w = 0; w < f.words(); ++w) {
        EXPECT_EQ(masks[w * rows + r] & ~lane_bits(lanes - 64 * w), 0u);
      }
    }
  }
}

TEST(BlockKernelDispatchTest, EveryPathBitIdenticalToScalar) {
  // The classify kernels through every compiled-and-supported dispatch
  // path must produce byte-identical masks, and so identical group
  // verdicts. scalar is the oracle.
  struct path_guard {
    cpu::simd_path saved = cpu::active_path();
    ~path_guard() { cpu::force_path(saved); }
  } restore;

  const std::size_t rows = 6, regions = 3;
  const std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  const double whw = 0.04;
  for (const unsigned radix : {2u, 3u}) {
    for (const std::size_t lanes : {33UL, 65UL}) {
      lane_fixture f(rows, regions, lanes, 2026 + lanes, radix, 7);
      std::vector<double> low_guard(rows * regions, -whw);
      low_guard[1] = -std::numeric_limits<double>::infinity();

      struct outputs {
        std::vector<std::uint64_t> conduction, window, group;
      };
      const auto run = [&] {
        outputs o;
        o.conduction = f.conduction();
        o.window.assign(f.words() * rows, 0xdead);
        window_masks(f.deviates.data(), f.lane_stride, lanes, rows, regions,
                     f.nominal.data(), f.noise_scale.data(), f.sigma,
                     low_guard.data(), whw, o.window.data());
        for (std::size_t w = 0; w < f.words(); ++w) {
          std::vector<std::uint64_t> live(rows,
                                          lane_bits(lanes - 64 * w));
          f.decide(o.conduction, w, members, live.data());
          o.group.insert(o.group.end(), live.begin(), live.end());
        }
        return o;
      };

      cpu::force_path(cpu::simd_path::scalar);
      const outputs oracle = run();
      for (const cpu::simd_path path : cpu::available_paths()) {
        cpu::force_path(path);
        const outputs got = run();
        const char* name = cpu::simd_path_name(path);
        ASSERT_EQ(oracle.conduction, got.conduction) << name;
        ASSERT_EQ(oracle.window, got.window) << name;
        ASSERT_EQ(oracle.group, got.group) << name;
      }
    }
  }
}

}  // namespace
}  // namespace nwdec::decoder
