// Tests for the common substrate: error handling, flop counting, RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/check.hpp"
#include "common/checksum.hpp"
#include "common/cnormal_ref.hpp"
#include "common/env.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"

namespace ppstap {
namespace {

TEST(Check, RequireThrowsWithContext) {
  try {
    PPSTAP_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, PassingRequireDoesNotThrow) {
  EXPECT_NO_THROW(PPSTAP_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(PPSTAP_CHECK(2 + 2 == 4, "fine"));
}

TEST(Flops, CountsOnlyInsideScope) {
  count_flops(100);  // no active scope: ignored
  FlopScope scope;
  EXPECT_EQ(scope.count(), 0u);
  count_flops(42);
  EXPECT_EQ(scope.count(), 42u);
  count_flops(8);
  EXPECT_EQ(scope.count(), 50u);
}

TEST(Flops, NestedScopesSeeInnerCounts) {
  FlopScope outer;
  count_flops(10);
  {
    FlopScope inner;
    count_flops(5);
    EXPECT_EQ(inner.count(), 5u);
  }
  count_flops(1);
  EXPECT_EQ(outer.count(), 16u);
}

TEST(Flops, ThreadLocalIsolation) {
  FlopScope scope;
  std::thread t([] {
    // No scope on this thread: counting is off and must not leak across.
    count_flops(1000);
  });
  t.join();
  count_flops(3);
  EXPECT_EQ(scope.count(), 3u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(99);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

// Statistical oracles for the fixed-draw sampler (common/cnormal_ref.hpp):
// 10^6 cnormal() samples, each quadrature against N(0, 1/2). Every bound
// is five standard errors of its statistic (KS: the 0.1% critical value),
// so a correct sampler fails one of them with negligible probability while
// a biased polynomial, a lost quadrant sign or a skewed radius does not
// pass.
TEST(Rng, ComplexNormalQuadraturesMatchTheGaussianLaw) {
  constexpr int kN = 1'000'000;
  constexpr double kSigma = 0.70710678118654752;  // sqrt(1/2)
  Rng r(0x6e6f726dULL);
  std::vector<double> quad[2];
  quad[0].reserve(kN);
  quad[1].reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const cdouble z = r.cnormal();
    quad[0].push_back(z.real());
    quad[1].push_back(z.imag());
  }
  const double n = kN;
  for (int q = 0; q < 2; ++q) {
    auto& x = quad[q];
    double m1 = 0, m2 = 0, m3 = 0, m4 = 0;
    index_t tails = 0;
    for (const double v : x) {
      const double t = v / kSigma;
      m1 += t;
      m2 += t * t;
      m3 += t * t * t;
      m4 += t * t * t * t;
      if (std::abs(t) > 4.0) ++tails;
    }
    m1 /= n, m2 /= n, m3 /= n, m4 /= n;
    // Standard errors of N(0, 1) moments: 1/sqrt(n), sqrt(2/n), sqrt(6/n),
    // sqrt(96/n) for the raw fourth moment.
    EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(n)) << "quadrature " << q;
    EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / n)) << "quadrature " << q;
    EXPECT_NEAR(m3, 0.0, 5.0 * std::sqrt(6.0 / n)) << "quadrature " << q;
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 5.0 * std::sqrt(24.0 / n))
        << "kurtosis, quadrature " << q;
    // P(|t| > 4) = erfc(4 / sqrt 2); the count is Poisson.
    const double tail_mean = n * std::erfc(4.0 / std::sqrt(2.0));
    EXPECT_NEAR(static_cast<double>(tails), tail_mean,
                5.0 * std::sqrt(tail_mean))
        << "beyond 4 sigma, quadrature " << q;
    // Kolmogorov–Smirnov distance to Phi(v / sigma) = erfc(-v) / 2.
    std::sort(x.begin(), x.end());
    double ks = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double cdf = 0.5 * std::erfc(-x[i]);
      ks = std::max({ks, cdf - static_cast<double>(i) / n,
                     static_cast<double>(i + 1) / n - cdf});
    }
    EXPECT_LT(ks, 1.95 / std::sqrt(n)) << "KS, quadrature " << q;
  }
}

// The polynomial log and sincos against libm, at the edges of the draw
// range: the smallest nonzero radius uniform 2^-53, the zero draw (clamped
// to kMinRadiusUniform), u1 -> 1 where log(u1) -> 0, the exponent-split
// boundary sqrt(1/2), and angle draws at every quadrant boundary.
TEST(Rng, SamplerPolynomialsMatchLibm) {
  namespace d = detail;
  const auto radius_error = [](double u1) {
    const double r = std::sqrt(-2.0 * d::log_ref(u1));
    const double ref = std::sqrt(-2.0 * std::log(u1));
    return std::abs(r - ref) / ref;
  };
  const auto angle_error = [](double u2) {
    double c, s;
    d::sincos_turn_ref(u2, c, s);
    const double theta = 2.0 * std::numbers::pi * u2;
    return std::hypot(c - std::cos(theta), s - std::sin(theta));
  };
  std::vector<double> radius = {0x1.0p-53, d::kMinRadiusUniform,
                                1.0 - 0x1.0p-53, 1.0 - 0x1.0p-52,
                                0.5, 0.25, 0x1.0p-30};
  for (double u = 0.70710678118654; u < 0.70710678118656; u += 1e-15)
    radius.push_back(u);
  std::vector<double> angle = {0.0, 0x1.0p-53, 1.0 - 0x1.0p-53};
  for (int k = 1; k < 8; ++k) {
    angle.push_back(k / 8.0);
    angle.push_back(k / 8.0 - 0x1.0p-53);
    angle.push_back(k / 8.0 + 0x1.0p-53);
  }
  Rng r(0xacc0ULL);
  for (int i = 0; i < 100000; ++i) {
    radius.push_back(std::max(r.uniform(), 0x1.0p-53));
    angle.push_back(r.uniform());
  }
  for (const double u1 : radius)
    EXPECT_LE(radius_error(u1), 1e-12) << "u1 = " << u1;
  for (const double u2 : angle)
    EXPECT_LE(angle_error(u2), 1e-12) << "u2 = " << u2;

  // The zero draw: u1 = 0 is clamped, never log(0).
  double first, second;
  d::box_muller_ref(0, 0, first, second);
  EXPECT_DOUBLE_EQ(first, std::sqrt(-2.0 * std::log(d::kMinRadiusUniform)));
  EXPECT_EQ(second, 0.0);
}

TEST(Rng, ComplexNormalUnitPower) {
  Rng r(5);
  const int n = 100000;
  double power = 0;
  for (int i = 0; i < n; ++i) {
    const cdouble z = r.cnormal();
    power += std::norm(z);
  }
  EXPECT_NEAR(power / n, 1.0, 0.03);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng base(42);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = Rng(42).fork(1);
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

// Jump-ahead: the SplitMix64 state is a Weyl sequence, so skip(n) must land
// exactly where n draws would — the contract parallel scene generation
// rests on.
TEST(Rng, SkipMatchesSequentialDraws) {
  for (const std::uint64_t n : {0ull, 1ull, 2ull, 1000ull}) {
    Rng drawn(0xfeedULL), jumped(0xfeedULL);
    for (std::uint64_t i = 0; i < n; ++i) (void)drawn.next_u64();
    jumped.skip(n);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(drawn.next_u64(), jumped.next_u64()) << "n = " << n;
  }
}

TEST(Rng, SkipFarAheadMatchesTheWeylState) {
  // 2^40 draws are out of reach one by one; the state they would leave is
  // seed + 2^40 * gamma (mod 2^64), which a fresh generator can start from.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kSeed = 0x0123456789abcdefULL;
  constexpr std::uint64_t n = std::uint64_t{1} << 40;
  Rng jumped(kSeed);
  jumped.skip(n);
  Rng oracle(kSeed + n * kGamma);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(jumped.next_u64(), oracle.next_u64());
  // Jumps compose: 2^40 = 1024 jumps of 2^30.
  Rng stepped(kSeed);
  for (int i = 0; i < 1024; ++i) stepped.skip(std::uint64_t{1} << 30);
  Rng again(kSeed);
  again.skip(n);
  EXPECT_EQ(stepped.next_u64(), again.next_u64());
}

TEST(Rng, ComplexNormalConsumesExactlyTwoDraws) {
  Rng sampled(31), jumped(31);
  for (int i = 0; i < 5; ++i) {
    (void)sampled.cnormal();
    jumped.skip(2);
    EXPECT_EQ(sampled.next_u64(), jumped.next_u64()) << "after cnormal " << i;
  }
}

TEST(Rng, SkipRefusesACachedNormalHalf) {
  Rng r(11), twin(11);
  (void)r.normal();  // caches the second Box–Muller half
  (void)twin.normal();
  EXPECT_THROW(r.skip(2), Error);
  // The refused jump left the stream untouched: the cached half is still
  // served, and both generators stay in lockstep afterwards.
  EXPECT_EQ(r.normal(), twin.normal());
  r.skip(3);
  twin.skip(3);
  EXPECT_EQ(r.next_u64(), twin.next_u64());
}

// --- hardened environment parsing ------------------------------------------

class EnvParse : public ::testing::Test {
 protected:
  static constexpr const char* kVar = "PPSTAP_TEST_ENV_PARSE";
  void TearDown() override { unsetenv(kVar); }
  void set(const char* value) { setenv(kVar, value, 1); }
};

TEST_F(EnvParse, UnsetAndEmptyAreNotConfigured) {
  unsetenv(kVar);
  EXPECT_FALSE(parse_env_int(kVar).has_value());
  EXPECT_FALSE(parse_env_flag(kVar).has_value());
  EXPECT_FALSE(parse_env_choice(kVar, {"a", "b"}).has_value());
  set("");
  EXPECT_FALSE(parse_env_int(kVar).has_value());
  EXPECT_FALSE(parse_env_flag(kVar).has_value());
  EXPECT_FALSE(parse_env_choice(kVar, {"a", "b"}).has_value());
}

TEST_F(EnvParse, ParsesValidNumbers) {
  set("-3");
  EXPECT_EQ(parse_env_int(kVar).value(), -3);
  set("42");
  EXPECT_EQ(parse_env_int(kVar, 0, 100).value(), 42);
}

TEST_F(EnvParse, GarbageThrowsNamingTheVariable) {
  for (const char* bad : {"abc", "1.5x", "12 monkeys", "--3", "0x10"}) {
    set(bad);
    try {
      parse_env_int(kVar);
      FAIL() << "expected Error for int input '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos) << bad;
    }
  }
}

TEST_F(EnvParse, OutOfRangeThrowsInsteadOfClamping) {
  set("-1");
  EXPECT_THROW(parse_env_int(kVar, 0, 100), Error);
  set("101");
  EXPECT_THROW(parse_env_int(kVar, 0, 100), Error);
}

TEST_F(EnvParse, FlagAcceptsCommonSpellings) {
  for (const char* yes : {"1", "true", "TRUE", "yes", "on", "On"}) {
    set(yes);
    EXPECT_TRUE(parse_env_flag(kVar).value()) << yes;
  }
  for (const char* no : {"0", "false", "no", "off", "OFF"}) {
    set(no);
    EXPECT_FALSE(parse_env_flag(kVar).value()) << no;
  }
  set("maybe");
  EXPECT_THROW(parse_env_flag(kVar), Error);
  set("2");
  EXPECT_THROW(parse_env_flag(kVar), Error);
}

TEST(Checksum, DeterministicAndSensitiveToEveryBit) {
  std::vector<float> data(37);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = 0.5f * static_cast<float>(i) - 3.0f;
  const std::span<const float> view(data);
  const std::uint64_t base = checksum_of(view);
  EXPECT_EQ(checksum_of(view), base);  // pure function of the bytes

  // Any single-bit flip anywhere in the payload changes the checksum —
  // the property both the transport and the ABFT digest rely on.
  auto bytes = std::as_writable_bytes(std::span<float>(data));
  for (size_t byte = 0; byte < bytes.size(); byte += 13)
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] ^= std::byte{1} << bit;
      EXPECT_NE(checksum_of(view), base) << byte << ":" << bit;
      bytes[byte] ^= std::byte{1} << bit;
    }
  EXPECT_EQ(checksum_of(view), base);
}

TEST(Checksum, LengthIsPartOfTheDigest) {
  const std::vector<float> a(8, 0.0f);
  const std::vector<float> b(9, 0.0f);  // same prefix bytes, longer
  EXPECT_NE(checksum_of(std::span<const float>(a)),
            checksum_of(std::span<const float>(b)));
  EXPECT_EQ(checksum_bytes({}), checksum_bytes({}));
}

TEST(Checksum, TypedViewMatchesRawBytes) {
  const std::vector<cfloat> z{{1.0f, -2.0f}, {0.25f, 4.0f}};
  const std::span<const cfloat> view(z);
  EXPECT_EQ(checksum_of(view), checksum_bytes(std::as_bytes(view)));
}

TEST_F(EnvParse, ChoiceMatchesCaseInsensitiveAndListsOptions) {
  set("REJECT");
  EXPECT_EQ(parse_env_choice(kVar, {"throttle", "reject"}).value(), 1u);
  set("throttle");
  EXPECT_EQ(parse_env_choice(kVar, {"throttle", "reject"}).value(), 0u);
  set("drop");
  try {
    parse_env_choice(kVar, {"throttle", "reject"});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("throttle"), std::string::npos);
    EXPECT_NE(what.find("reject"), std::string::npos);
  }
}

TEST(Backoff, RetryDelayJitterStaysInBounds) {
  // The jitter factor is specified as [0.75, 1.25) around the exponential
  // base delay; a value outside that window would either re-correlate
  // lock-step retries (too tight) or blow the retry budget (too loose).
  constexpr double kSeed = 50e-6;
  constexpr double kCap = 2e-3;
  for (std::uint64_t salt : {0ull, 1ull, 42ull, 0xdeadbeefull, ~0ull})
    for (int attempt = 1; attempt <= 10; ++attempt) {
      const double base =
          std::min(kSeed * std::pow(2.0, attempt - 1), kCap);
      const double d = retry_delay(attempt, salt, kSeed, kCap);
      EXPECT_GE(d, 0.75 * base) << "salt " << salt << " attempt " << attempt;
      EXPECT_LT(d, 1.25 * base) << "salt " << salt << " attempt " << attempt;
    }
}

TEST(Backoff, RetryDelayIsDeterministicPerSaltAndAttempt) {
  for (std::uint64_t salt : {3ull, 99ull})
    for (int attempt = 1; attempt <= 6; ++attempt)
      EXPECT_DOUBLE_EQ(retry_delay(attempt, salt), retry_delay(attempt, salt));
  // Different salts decorrelate: at least one attempt must differ.
  bool any_differ = false;
  for (int attempt = 1; attempt <= 6; ++attempt)
    any_differ |= retry_delay(attempt, 3) != retry_delay(attempt, 99);
  EXPECT_TRUE(any_differ);
}

TEST(Backoff, RetryDelayCapSaturates) {
  // Far past the doubling range the delay pins to the cap (jitter aside),
  // and ever-larger attempts cannot grow it further.
  constexpr double kCap = 2e-3;
  for (int attempt : {20, 100, 1000}) {
    const double d = retry_delay(attempt, 7, 50e-6, kCap);
    EXPECT_GE(d, 0.75 * kCap);
    EXPECT_LT(d, 1.25 * kCap);
  }
  // Attempts below 1 clamp to the first attempt's delay.
  EXPECT_DOUBLE_EQ(retry_delay(0, 7), retry_delay(1, 7));
  EXPECT_DOUBLE_EQ(retry_delay(-5, 7), retry_delay(1, 7));
}

}  // namespace
}  // namespace ppstap
