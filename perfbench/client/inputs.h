// Input generation for the pipeline benchmark. Kept in the benchmark's own
// code (not src/stream) so a change to the library's generators can never
// change what the benchmark feeds the program: the same --seed gives the
// same labels on every commit.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Zipf(s) over ranks 1..n by rejection-inversion (Hörmann & Derflinger,
// "Rejection-inversion to generate variates from monotone discrete
// distributions", 1996): O(1) per draw, no table over the universe.
class ZipfRanks {
 public:
  ZipfRanks(std::uint64_t n, double s)
      : n_(static_cast<double>(n)),
        s_(s),
        h_x1_(h_integral(1.5) - 1.0),
        h_n_(h_integral(n_ + 0.5)),
        cut_(2.0 - h_integral_inverse(h_integral(2.5) - h(2.0))) {}

  std::uint64_t draw(SplitMix& rng) const {
    for (;;) {
      const double u = h_n_ + rng.uniform() * (h_x1_ - h_n_);
      const double x = h_integral_inverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > n_) k = n_;
      if (k - x <= cut_ || u >= h_integral(k + 0.5) - h(k)) {
        return static_cast<std::uint64_t>(k);
      }
    }
  }

 private:
  static double helper1(double x) {  // log1p(x) / x
    return std::fabs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double helper2(double x) {  // expm1(x) / x
    return std::fabs(x) > 1e-8 ? std::expm1(x) / x
                               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }
  double h(double x) const { return std::exp(-s_ * std::log(x)); }
  double h_integral(double x) const {
    const double log_x = std::log(x);
    return helper2((1.0 - s_) * log_x) * log_x;
  }
  double h_integral_inverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(helper1(t) * x);
  }

  double n_;
  double s_;
  double h_x1_;
  double h_n_;
  double cut_;
};

struct StreamShape {
  std::size_t sites = 0;
  std::size_t per_site = 0;     // labels each site observes
  std::uint64_t universe = 0;   // Zipf ranks per label space
  double alpha = 1.0;           // Zipf exponent
  double private_share = 0.0;   // share of draws from the site's own label space
};

// Overlapping skewed streams: every site draws Zipf ranks; a draw lands in
// the label space all sites share, or (with probability private_share) in
// the site's private one. Rank r maps to a label by a keyed mix, so hot
// labels are common to every site and the tails mostly are not.
inline std::vector<std::vector<std::uint64_t>> make_streams(const StreamShape& shape,
                                                            std::uint64_t seed) {
  const ZipfRanks zipf(shape.universe, shape.alpha);
  const std::uint64_t shared_key = mix64(seed ^ 0x5a17ed5a17ed5a17ULL);
  std::vector<std::vector<std::uint64_t>> streams(shape.sites);
  for (std::size_t s = 0; s < shape.sites; ++s) {
    SplitMix rng(mix64(seed + 0x632be59bd9b4e019ULL * (s + 1)));
    const std::uint64_t private_key = mix64(shared_key + s + 1);
    auto& out = streams[s];
    out.resize(shape.per_site);
    for (auto& label : out) {
      const bool own = rng.uniform() < shape.private_share;
      label = mix64((own ? private_key : shared_key) ^ zipf.draw(rng));
    }
  }
  return streams;
}

}  // namespace perfbench
