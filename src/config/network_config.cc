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

int
NetworkConfig::totalNodes(int router_ports) const
{
    switch (topology) {
      case TopologyKind::SingleSwitch:
        return router_ports;
      case TopologyKind::FatMesh:
      case TopologyKind::Mesh:
      case TopologyKind::Torus:
        return meshWidth * meshHeight * endpointsPerSwitch;
      case TopologyKind::Clos:
        return closN * closR;
    }
    return 0;
}

int
NetworkConfig::numRouters() const
{
    switch (topology) {
      case TopologyKind::SingleSwitch:
        return 1;
      case TopologyKind::FatMesh:
      case TopologyKind::Mesh:
      case TopologyKind::Torus:
        return meshWidth * meshHeight;
      case TopologyKind::Clos:
        return closR + closM;
    }
    return 0;
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
NetworkConfig::validate(int router_ports) const
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
        if (closN + closM > router_ports)
            fatal("NetworkConfig: clos leaf needs %d ports (n=%d "
                  "endpoints + m=%d uplinks) but the router has %d",
                  closN + closM, closN, closM, router_ports);
        if (closR > router_ports)
            fatal("NetworkConfig: clos spine needs %d ports (one per "
                  "leaf) but the router has %d",
                  closR, router_ports);
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

    // Each switch needs ports for its endpoints plus fatFactor links
    // towards each neighbour (at most 4; on the torus, exactly the
    // present wrap directions).
    const bool is_torus = topology == TopologyKind::Torus;
    const int fat =
        topology == TopologyKind::FatMesh ? fatFactor : 1;
    int max_neighbours = 0;
    for (int y = 0; y < meshHeight; ++y) {
        for (int x = 0; x < meshWidth; ++x) {
            int neighbours = 0;
            if (is_torus) {
                neighbours += 2 * (meshWidth > 1);
                neighbours += 2 * (meshHeight > 1);
            } else {
                neighbours += (x > 0) + (x < meshWidth - 1);
                neighbours += (y > 0) + (y < meshHeight - 1);
            }
            if (neighbours > max_neighbours)
                max_neighbours = neighbours;
        }
    }
    const int needed = endpointsPerSwitch + max_neighbours * fat;
    if (needed > router_ports) {
        fatal("NetworkConfig: %d endpoint + %d inter-switch ports "
              "exceed the %d-port router",
              endpointsPerSwitch, max_neighbours * fat, router_ports);
    }
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
