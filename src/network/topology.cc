#include "network/topology.hh"

#include <algorithm>
#include <cstdio>

#include "config/router_config.hh"
#include "sim/logging.hh"

namespace mediaworm::network {

void
Topology::addChannel(int src_router, int src_port, int dst_router,
                     int dst_port)
{
    channels_.push_back({src_router, src_port, dst_router, dst_port});
}

void
Topology::finalize()
{
    int max_port = -1;
    for (const TopoEndpoint& ep : endpoints_)
        max_port = std::max(max_port, ep.port);
    for (const TopoChannel& ch : channels_) {
        max_port = std::max(max_port, ch.srcPort);
        max_port = std::max(max_port, ch.dstPort);
    }
    portsRequired_ = max_port + 1;

    outChan_.assign(
        static_cast<std::size_t>(numRouters_ * portsRequired_), -1);
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        const TopoChannel& ch = channels_[c];
        int& slot = outChan_[static_cast<std::size_t>(
            ch.srcRouter * portsRequired_ + ch.srcPort)];
        MW_ASSERT(slot == -1);
        slot = static_cast<int>(c);
    }
}

int
Topology::outChannelAt(int router, int port) const
{
    if (port < 0 || port >= portsRequired_)
        return -1;
    return outChan_[static_cast<std::size_t>(
        router * portsRequired_ + port)];
}

std::vector<int>
Topology::outChannelsOf(int router) const
{
    std::vector<int> out;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (channels_[c].srcRouter == router)
            out.push_back(static_cast<int>(c));
    }
    return out;
}

int
Topology::dirPort(int s, int dir) const
{
    if (dirPort_.empty())
        return -1;
    return dirPort_[static_cast<std::size_t>(s * 4 + dir)];
}

Topology
Topology::singleSwitch(int ports)
{
    MW_ASSERT(ports >= 1);
    Topology t;
    t.kind_ = config::TopologyKind::SingleSwitch;
    t.numRouters_ = 1;
    t.endpointsPerSwitch = ports;
    for (int p = 0; p < ports; ++p)
        t.endpoints_.push_back({0, p});
    t.finalize();
    return t;
}

Topology
Topology::grid(config::TopologyKind kind, int width, int height,
               int fat, int eps, bool wrap)
{
    MW_ASSERT(width >= 1 && height >= 1 && fat >= 1 && eps >= 1);
    Topology t;
    t.kind_ = kind;
    t.numRouters_ = width * height;
    t.meshWidth = width;
    t.meshHeight = height;
    t.fatFactor = fat;
    t.wrap = wrap;
    t.endpointsPerSwitch = eps;

    const int num_switches = width * height;

    // Port map per switch: endpoint ports first, then fat channels
    // per present direction in East/West/South/North order. On the
    // torus every direction with a distinct or wrap neighbour is
    // present.
    t.dirPort_.assign(static_cast<std::size_t>(num_switches * 4), -1);
    for (int s = 0; s < num_switches; ++s) {
        const int x = s % width;
        const int y = s / width;
        int next_port = eps;
        const bool present[4] = {
            wrap ? width > 1 : x < width - 1,  // East
            wrap ? width > 1 : x > 0,          // West
            wrap ? height > 1 : y < height - 1, // South
            wrap ? height > 1 : y > 0,         // North
        };
        for (int d = 0; d < 4; ++d) {
            if (!present[d])
                continue;
            t.dirPort_[static_cast<std::size_t>(s * 4 + d)] =
                next_port;
            next_port += fat;
        }
    }

    // Endpoints: node n lives on switch n / eps at port n % eps.
    for (int s = 0; s < num_switches; ++s) {
        for (int e = 0; e < eps; ++e)
            t.endpoints_.push_back({s, e});
    }

    // Inter-switch fat channels: for each adjacent pair, fat links
    // in each direction, pairing the k-th port on both sides. The
    // enumeration order (row-major, East pair then its reverse,
    // South pair then its reverse, wrap channels from the last
    // row/column) fixes the canonical link order.
    auto wire = [&t, fat](int s, int sd, int u, int ud) {
        for (int k = 0; k < fat; ++k) {
            t.addChannel(s, t.dirPort(s, sd) + k, u,
                         t.dirPort(u, ud) + k);
        }
    };
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const int s = y * width + x;
            if (x < width - 1) {
                wire(s, 0, s + 1, 1);     // East out
                wire(s + 1, 1, s, 0);     // West back
            } else if (wrap && width > 1) {
                const int u = y * width;  // Row wrap partner.
                wire(s, 0, u, 1);
                wire(u, 1, s, 0);
            }
            if (y < height - 1) {
                wire(s, 2, s + width, 3); // South out
                wire(s + width, 3, s, 2); // North back
            } else if (wrap && height > 1) {
                const int u = x;          // Column wrap partner.
                wire(s, 2, u, 3);
                wire(u, 3, s, 2);
            }
        }
    }

    t.finalize();
    return t;
}

Topology
Topology::fatMesh(int width, int height, int fat, int eps)
{
    return grid(config::TopologyKind::FatMesh, width, height, fat,
                eps, false);
}

Topology
Topology::mesh(int width, int height, int eps)
{
    return grid(config::TopologyKind::Mesh, width, height, 1, eps,
                false);
}

Topology
Topology::torus(int width, int height, int eps)
{
    return grid(config::TopologyKind::Torus, width, height, 1, eps,
                true);
}

Topology
Topology::clos(int m, int n, int r)
{
    MW_ASSERT(m >= 1 && n >= 1 && r >= 1);
    Topology t;
    t.kind_ = config::TopologyKind::Clos;
    t.numRouters_ = r + m;
    t.closM = m;
    t.closN = n;
    t.closR = r;
    t.endpointsPerSwitch = n;

    for (int leaf = 0; leaf < r; ++leaf) {
        for (int e = 0; e < n; ++e)
            t.endpoints_.push_back({leaf, e});
    }
    // Per leaf: the up channel to every spine, then its down mirror
    // (so up/down pairs share the canonical-order locality the
    // fat-mesh wiring has).
    for (int leaf = 0; leaf < r; ++leaf) {
        for (int j = 0; j < m; ++j) {
            const int spine = r + j;
            t.addChannel(leaf, n + j, spine, leaf);
            t.addChannel(spine, leaf, leaf, n + j);
        }
    }

    t.finalize();
    return t;
}

double
Topology::bufferBytes(const config::RouterConfig& router) const
{
    const double wired_ports =
        static_cast<double>(endpoints_.size() + channels_.size());
    constexpr double kFlitBytes = 64.0; // sizeof(router::Flit)
    return wired_ports * router.numVcs * router.flitBufferDepth
        * kFlitBytes * 2.0;
}

std::string
Topology::budgetError(const config::RouterConfig& router) const
{
    char buf[200];
    if (portsRequired_ > router.numPorts) {
        std::snprintf(buf, sizeof(buf),
                      "the %s needs %d-port routers, but the router "
                      "has %d ports",
                      config::toString(kind_), portsRequired_,
                      router.numPorts);
        return buf;
    }
    const double bytes = bufferBytes(router);
    if (bytes <= kMaxBufferBytes)
        return {};
    std::snprintf(buf, sizeof(buf),
                  "flit buffers need an estimated %.1f MiB (%d VCs x "
                  "%d-flit buffers on every wired port), over the "
                  "%.0f MiB limit",
                  bytes / (1024.0 * 1024.0), router.numVcs,
                  router.flitBufferDepth,
                  kMaxBufferBytes / (1024.0 * 1024.0));
    return buf;
}

Topology
Topology::build(const config::NetworkConfig& net, int router_ports)
{
    switch (net.topology) {
      case config::TopologyKind::SingleSwitch:
        return singleSwitch(router_ports);
      case config::TopologyKind::FatMesh:
        return fatMesh(net.meshWidth, net.meshHeight, net.fatFactor,
                       net.endpointsPerSwitch);
      case config::TopologyKind::Mesh:
        return mesh(net.meshWidth, net.meshHeight,
                    net.endpointsPerSwitch);
      case config::TopologyKind::Torus:
        return torus(net.meshWidth, net.meshHeight,
                     net.endpointsPerSwitch);
      case config::TopologyKind::Clos:
        return clos(net.closM, net.closN, net.closR);
    }
    sim::panic("Topology::build: unknown topology kind");
}

} // namespace mediaworm::network
