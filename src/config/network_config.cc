#include "config/network_config.hh"

#include <cstdio>

#include "config/router_config.hh"
#include "sim/logging.hh"

namespace mediaworm::config {

const char*
toString(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::SingleSwitch:
        return "single-switch";
      case TopologyKind::FatMesh:
        return "fat-mesh";
      case TopologyKind::Mesh:
        return "mesh";
      case TopologyKind::Torus:
        return "torus";
      case TopologyKind::Clos:
        return "clos";
    }
    return "?";
}

const char*
toString(FatLinkPolicy policy)
{
    switch (policy) {
      case FatLinkPolicy::LeastLoaded:
        return "least-loaded";
      case FatLinkPolicy::Static:
        return "static";
      case FatLinkPolicy::Random:
        return "random";
    }
    return "?";
}

const char*
toString(RoutingKind kind)
{
    switch (kind) {
      case RoutingKind::Default:
        return "default";
      case RoutingKind::DimensionOrder:
        return "dimension-order";
      case RoutingKind::UpDown:
        return "up*/down*";
      case RoutingKind::Adaptive:
        return "adaptive";
    }
    return "?";
}

RoutingKind
NetworkConfig::effectiveRouting() const
{
    // Every single-switch route is an ejection, so the switch
    // ignores the requested policy (and keeps one VC class).
    if (topology == TopologyKind::SingleSwitch)
        return RoutingKind::DimensionOrder;
    if (routing != RoutingKind::Default)
        return routing;
    return topology == TopologyKind::Clos ? RoutingKind::UpDown
                                          : RoutingKind::DimensionOrder;
}

void
NetworkConfig::validate(int /*router_ports*/) const
{
    using sim::fatal;
    if (topology == TopologyKind::SingleSwitch)
        return;

    if (topology == TopologyKind::Clos) {
        if (closM < 1 || closN < 1 || closR < 1)
            fatal("NetworkConfig: clos(m,n,r) must all be >= 1");
        if (closM > kMaxRouteCandidates)
            fatal("NetworkConfig: clos spine count %d exceeds the "
                  "%d-candidate route limit",
                  closM, kMaxRouteCandidates);
        // All three routing kinds are defined on the Clos:
        // dimension-order degenerates to a deterministic single-up
        // path (spine = dest leaf mod m), up*/down* spreads across
        // all spines, adaptive prefers free spines with the
        // deterministic one as escape.
        return;
    }

    if (meshWidth < 1 || meshHeight < 1)
        fatal("NetworkConfig: mesh dimensions must be >= 1");
    if (meshWidth * meshHeight < 2)
        fatal("NetworkConfig: a mesh needs at least 2 switches");
    if (fatFactor < 1)
        fatal("NetworkConfig: fatFactor must be >= 1");
    if (topology == TopologyKind::FatMesh
        && fatFactor > kMaxRouteCandidates)
        fatal("NetworkConfig: fatFactor %d exceeds the %d-candidate "
              "route limit",
              fatFactor, kMaxRouteCandidates);
    if (endpointsPerSwitch < 1)
        fatal("NetworkConfig: endpointsPerSwitch must be >= 1");
    if (topology == TopologyKind::FatMesh
        && (routing == RoutingKind::UpDown
            || routing == RoutingKind::Adaptive))
        fatal("NetworkConfig: the fat mesh keeps its paper XY "
              "routing (Default/DimensionOrder); up*/down* and "
              "adaptive apply to mesh/torus/clos");
}

std::string
NetworkConfig::describe() const
{
    char buf[160];
    switch (topology) {
      case TopologyKind::SingleSwitch:
        std::snprintf(buf, sizeof(buf), "single switch");
        break;
      case TopologyKind::FatMesh:
        std::snprintf(buf, sizeof(buf),
                      "%dx%d fat-mesh, fat=%d (%s), %d endpoints/switch",
                      meshWidth, meshHeight, fatFactor,
                      toString(fatLinkPolicy), endpointsPerSwitch);
        break;
      case TopologyKind::Mesh:
      case TopologyKind::Torus:
        std::snprintf(buf, sizeof(buf),
                      "%dx%d %s, %d endpoints/switch, %s routing",
                      meshWidth, meshHeight, toString(topology),
                      endpointsPerSwitch,
                      toString(effectiveRouting()));
        break;
      case TopologyKind::Clos:
        std::snprintf(buf, sizeof(buf),
                      "clos(m=%d,n=%d,r=%d), %d endpoints, %s routing",
                      closM, closN, closR, closN * closR,
                      toString(effectiveRouting()));
        break;
    }
    return buf;
}

} // namespace mediaworm::config
