/**
 * @file
 * Umbrella public header for the MediaWorm library.
 *
 * Typical use:
 * @code
 *   #include "core/mediaworm.hh"
 *   using namespace mediaworm;
 *
 *   core::ExperimentConfig cfg;
 *   cfg.traffic.inputLoad = 0.8;
 *   cfg.traffic.realTimeFraction = 0.8; // an 80:20 VBR:BE mix
 *   auto result = core::runExperiment(cfg);
 *   // result.meanIntervalNormMs ~ 33.0 and
 *   // result.stddevIntervalNormMs ~ 0 mean jitter-free delivery.
 * @endcode
 */

#ifndef MEDIAWORM_CORE_MEDIAWORM_HH
#define MEDIAWORM_CORE_MEDIAWORM_HH

#include "calculus/curves.hh"
#include "calculus/oracle.hh"
#include "calculus/provision.hh"
#include "calculus/route_model.hh"
#include "campaign/aggregate.hh"
#include "campaign/artifact.hh"
#include "campaign/campaign.hh"
#include "campaign/json.hh"
#include "campaign/seeds.hh"
#include "config/network_config.hh"
#include "config/router_config.hh"
#include "config/traffic_config.hh"
#include "core/experiment.hh"
#include "core/table.hh"
#include "network/metrics.hh"
#include "network/network.hh"
#include "network/network_interface.hh"
#include "router/arbiter.hh"
#include "router/flit.hh"
#include "router/link.hh"
#include "router/virtual_clock.hh"
#include "router/wormhole_router.hh"
#include "sim/simulator.hh"
#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/interval_tracker.hh"
#include "traffic/best_effort_source.hh"
#include "traffic/frame_source.hh"
#include "traffic/stream.hh"
#include "traffic/traffic_mix.hh"

#endif // MEDIAWORM_CORE_MEDIAWORM_HH
