#include "sim/distributions.hh"

#include <cmath>

#include "sim/logging.hh"

namespace mediaworm::sim {

NormalDistribution::NormalDistribution(double mean, double stddev)
    : mean_(mean), stddev_(stddev)
{
    MW_ASSERT(stddev >= 0.0);
}

double
NormalDistribution::sample(Rng& rng)
{
    if (hasSpare_) {
        hasSpare_ = false;
        return mean_ + stddev_ * spare_;
    }
    double u;
    double v;
    double s;
    do {
        u = rng.uniform(-1.0, 1.0);
        v = rng.uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    hasSpare_ = true;
    return mean_ + stddev_ * u * factor;
}

TruncatedNormalDistribution::TruncatedNormalDistribution(double mean,
                                                         double stddev,
                                                         double floor)
    : normal_(mean, stddev), floor_(floor)
{
    MW_ASSERT(floor < mean);
}

double
TruncatedNormalDistribution::sample(Rng& rng)
{
    double x;
    do {
        x = normal_.sample(rng);
    } while (x < floor_);
    return x;
}

} // namespace mediaworm::sim
