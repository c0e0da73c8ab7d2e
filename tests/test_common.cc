// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/error.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stable_vector.h"
#include "common/string_pool.h"

namespace ocep {
namespace {

// --- StringPool -------------------------------------------------------------

TEST(StringPool, EmptyStringIsSymbolZero) {
  StringPool pool;
  EXPECT_EQ(pool.intern(""), kEmptySymbol);
  EXPECT_EQ(pool.view(kEmptySymbol), "");
}

TEST(StringPool, InternIsIdempotent) {
  StringPool pool;
  const Symbol a1 = pool.intern("alpha");
  const Symbol b = pool.intern("beta");
  const Symbol a2 = pool.intern("alpha");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(pool.view(a1), "alpha");
  EXPECT_EQ(pool.view(b), "beta");
}

TEST(StringPool, LookupDoesNotIntern) {
  StringPool pool;
  Symbol out;
  EXPECT_FALSE(pool.lookup("missing", out));
  const Symbol sym = pool.intern("present");
  ASSERT_TRUE(pool.lookup("present", out));
  EXPECT_EQ(out, sym);
  EXPECT_EQ(pool.size(), 2U);  // "" and "present"
}

TEST(StringPool, ViewsStayValidAsPoolGrows) {
  StringPool pool;
  const Symbol first = pool.intern("needle");
  const std::string_view view = pool.view(first);
  for (int i = 0; i < 5000; ++i) {
    pool.intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(view, "needle");
  EXPECT_EQ(pool.view(first), "needle");
  Symbol out;
  ASSERT_TRUE(pool.lookup("needle", out));
  EXPECT_EQ(out, first);
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99), c(100);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    all_equal = all_equal && (va == b());
    any_diff_seed_diff = any_diff_seed_diff || (va != c());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all residues hit over 1000 draws
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(3, 5);
    EXPECT_GE(v, 3U);
    EXPECT_LE(v, 5U);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 100));
    EXPECT_TRUE(rng.chance(100, 100));
  }
}

// --- Flags ------------------------------------------------------------------

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--traces=10", "--events", "5000",
                        "--verbose"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("traces", 0), 10);
  EXPECT_EQ(flags.get_int("events", 0), 5000);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  flags.check_unused();
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("traces", 42), 42);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.5), 0.5);
  EXPECT_FALSE(flags.get_bool("verbose", false));
}

TEST(Flags, RejectsMalformedInput) {
  const char* bad_prefix[] = {"prog", "traces=10"};
  EXPECT_THROW(Flags(2, bad_prefix), Error);

  const char* dup[] = {"prog", "--x=1", "--x=2"};
  EXPECT_THROW(Flags(3, dup), Error);

  const char* argv[] = {"prog", "--n=abc"};
  Flags flags(2, argv);
  EXPECT_THROW(static_cast<void>(flags.get_int("n", 0)), Error);
}

TEST(Flags, CheckUnusedCatchesTypos) {
  const char* argv[] = {"prog", "--tracs=10"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.get_int("traces", 3), 3);
  EXPECT_THROW(flags.check_unused(), Error);
}

// --- StableVector -----------------------------------------------------------

TEST(StableVector, AddressesStayStableAcrossGrowth) {
  StableVector<std::uint32_t, 4> vector;  // 16-element first chunk
  vector.push_back(7);
  const std::uint32_t* first = &vector[0];
  for (std::uint32_t i = 1; i < 10000; ++i) {
    vector.push_back(i);
  }
  EXPECT_EQ(first, &vector[0]) << "growth moved an element";
  EXPECT_EQ(vector.size(), 10000U);
  EXPECT_EQ(vector[0], 7U);
  for (std::uint32_t i = 1; i < 10000; ++i) {
    ASSERT_EQ(vector[i], i);
  }
  EXPECT_GE(vector.capacity(), vector.size());
}

}  // namespace
}  // namespace ocep
