/**
 * @file
 * Network-calculus primitives: leaky-bucket arrival curves and
 * rate-latency service curves (Cruz; Le Boudec & Thiran; applied to
 * wormhole routing by Farhi & Gaujal).
 *
 * Everything the delay oracle computes reduces to three operations on
 * these two curve families:
 *
 *  - aggregation of arrival curves (sum of leaky buckets is a leaky
 *    bucket: sigma and rho add),
 *  - min-plus convolution of service curves (a tandem of rate-latency
 *    servers is rate-latency: R = min, T = sum), and
 *  - the horizontal-deviation delay bound D <= T + sigma / R, valid
 *    whenever the long-term arrival rate fits the service rate
 *    (rho <= R).
 *
 * Units are flits and microseconds throughout: sigma in flits, rho
 * and R in flits/us, T in us. "No guarantee" (a saturated or
 * oversubscribed server) is represented by rate 0 / infinite latency;
 * delay bounds through such a server are infinity, which the report
 * layer surfaces as bounded = false rather than a number.
 */

#ifndef MEDIAWORM_CALCULUS_CURVES_HH
#define MEDIAWORM_CALCULUS_CURVES_HH

#include <algorithm>
#include <limits>

namespace mediaworm::calculus {

/** Positive infinity, the "no bound exists" value. */
inline constexpr double kUnbounded =
    std::numeric_limits<double>::infinity();

/**
 * Leaky-bucket (token-bucket) arrival envelope
 * alpha(t) = sigma + rho * t: at most sigma flits at once and at most
 * rho flits/us sustained.
 */
struct ArrivalCurve
{
    double sigmaFlits = 0.0;  ///< Burst allowance (flits).
    double rhoFlitsPerUs = 0.0; ///< Sustained rate (flits/us).

    /** Envelope value at @p t_us (t >= 0). */
    double at(double t_us) const
    {
        return sigmaFlits + rhoFlitsPerUs * t_us;
    }
};

/** Aggregates two envelopes: the sum of leaky buckets. */
inline ArrivalCurve
aggregate(const ArrivalCurve& a, const ArrivalCurve& b)
{
    return {a.sigmaFlits + b.sigmaFlits,
            a.rhoFlitsPerUs + b.rhoFlitsPerUs};
}

/**
 * Rate-latency service guarantee beta(t) = R * max(0, t - T): after a
 * latency of at most T us the server sustains at least R flits/us.
 */
struct ServiceCurve
{
    double rateFlitsPerUs = 0.0; ///< Guaranteed rate R (flits/us).
    double latencyUs = kUnbounded; ///< Worst-case latency T (us).

    /** True when the curve guarantees any service at all. */
    bool guarantees() const
    {
        return rateFlitsPerUs > 0.0 && latencyUs < kUnbounded;
    }

    /** The no-guarantee curve (rate 0, infinite latency). */
    static ServiceCurve none()
    {
        return {0.0, kUnbounded};
    }
};

/**
 * Min-plus convolution of two rate-latency curves: the end-to-end
 * guarantee of traversing both servers in sequence.
 * R = min(R1, R2), T = T1 + T2.
 */
inline ServiceCurve
convolve(const ServiceCurve& a, const ServiceCurve& b)
{
    if (!a.guarantees() || !b.guarantees())
        return ServiceCurve::none();
    return {std::min(a.rateFlitsPerUs, b.rateFlitsPerUs),
            a.latencyUs + b.latencyUs};
}

/**
 * Residual (leftover) service of a constant-rate server of
 * @p capacity flits/us shared with cross traffic of envelope
 * @p interference, under arbitrary work-conserving multiplexing:
 *
 *   beta(t) = [capacity * t - interference(t)]+
 *           = (C - rho_I) * [t - (sigma_I + base_latency_flits) /
 *                                (C - rho_I)]+
 *
 * @p base_latency_us is a fixed pre-service latency (pipeline stages,
 * link propagation) added to T after the residual is formed.
 * Returns ServiceCurve::none() when the cross traffic saturates the
 * server (rho_I >= C): no finite guarantee exists.
 */
inline ServiceCurve
residual(double capacity_flits_per_us,
         const ArrivalCurve& interference, double base_latency_us)
{
    const double rate =
        capacity_flits_per_us - interference.rhoFlitsPerUs;
    if (rate <= 0.0)
        return ServiceCurve::none();
    return {rate, interference.sigmaFlits / rate + base_latency_us};
}

/**
 * Worst-case delay (horizontal deviation) of a flow with envelope
 * @p arrival through a server guaranteeing @p service, assuming
 * FIFO order within the flow:
 *
 *   D <= T + sigma / R       when rho <= R,
 *   D = infinity (kUnbounded) otherwise.
 */
inline double
delayBoundUs(const ArrivalCurve& arrival, const ServiceCurve& service)
{
    if (!service.guarantees()
        || arrival.rhoFlitsPerUs > service.rateFlitsPerUs)
        return kUnbounded;
    return service.latencyUs
        + arrival.sigmaFlits / service.rateFlitsPerUs;
}

/**
 * Worst-case backlog (vertical deviation) in flits:
 * B <= sigma + rho * T, infinity when rho > R.
 */
inline double
backlogBoundFlits(const ArrivalCurve& arrival,
                  const ServiceCurve& service)
{
    if (!service.guarantees()
        || arrival.rhoFlitsPerUs > service.rateFlitsPerUs)
        return kUnbounded;
    return arrival.sigmaFlits
        + arrival.rhoFlitsPerUs * service.latencyUs;
}

} // namespace mediaworm::calculus

#endif // MEDIAWORM_CALCULUS_CURVES_HH
