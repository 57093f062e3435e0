#include "src/host/topology.hpp"

#include <cassert>
#include <deque>
#include <unordered_map>

namespace tpp::host {

Host& Testbed::addHost(std::string name) {
  const auto n = static_cast<std::uint32_t>(hosts_.size() + 1);
  if (name.empty()) name = "h" + std::to_string(n - 1);
  hosts_.push_back(std::make_unique<Host>(sim_, std::move(name),
                                          net::MacAddress::fromIndex(n),
                                          net::Ipv4Address::forHost(n)));
  return *hosts_.back();
}

asic::Switch& Testbed::addSwitch(asic::SwitchConfig config, std::string name) {
  if (config.switchId == 0) {
    config.switchId = static_cast<std::uint32_t>(switches_.size() + 1);
  }
  if (name.empty()) name = "sw" + std::to_string(switches_.size());
  switches_.push_back(
      std::make_unique<asic::Switch>(sim_, std::move(name), config));
  return *switches_.back();
}

net::DuplexLink& Testbed::link(net::Node& a, std::size_t portA, net::Node& b,
                               std::size_t portB, std::uint64_t rateBps,
                               sim::Time delay) {
  links_.push_back(
      net::DuplexLink::connect(sim_, a, portA, b, portB, rateBps, delay));
  edges_.push_back(Edge{&a, portA, &b, portB});
  return *links_.back();
}

bool Testbed::installTask(core::EffectSummary summary, std::string* whyNot) {
  std::vector<core::EffectSummary> candidate = installedTasks_;
  candidate.push_back(std::move(summary));
  const auto report =
      core::analyzeInterference(candidate, interferenceOptions_);
  if (!report.ok()) {
    // The installed set was error-free before, so every error implicates
    // the candidate; reject it and leave the set untouched.
    if (whyNot != nullptr) {
      whyNot->clear();
      for (const auto& f : report.findings) {
        if (f.severity != core::Severity::Error) continue;
        if (!whyNot->empty()) *whyNot += '\n';
        *whyNot += core::formatConflict(f);
      }
    }
    return false;
  }
  installedTasks_ = std::move(candidate);
  return true;
}

Testbed::Attachment Testbed::attachmentOf(const Host& h) const {
  for (const auto& e : edges_) {
    if (e.a == &h) {
      return {dynamic_cast<asic::Switch*>(e.b), e.portB};
    }
    if (e.b == &h) {
      return {dynamic_cast<asic::Switch*>(e.a), e.portA};
    }
  }
  return {};
}

void Testbed::installAllRoutes() {
  // Switch-to-switch adjacency: for each switch, (peer switch, my port).
  struct Adj {
    asic::Switch* peer;
    std::size_t myPort;
  };
  std::unordered_map<asic::Switch*, std::vector<Adj>> adj;
  for (const auto& e : edges_) {
    auto* sa = dynamic_cast<asic::Switch*>(e.a);
    auto* sb = dynamic_cast<asic::Switch*>(e.b);
    if (sa && sb) {
      adj[sa].push_back({sb, e.portA});
      adj[sb].push_back({sa, e.portB});
    }
  }

  for (const auto& hptr : hosts_) {
    const Host& h = *hptr;
    const auto attach = attachmentOf(h);
    assert(attach.sw != nullptr && "host is not attached to any switch");

    // BFS outward from the attachment switch; record each switch's port
    // toward the host.
    std::unordered_map<asic::Switch*, std::size_t> portToward;
    portToward[attach.sw] = attach.port;
    std::deque<asic::Switch*> frontier{attach.sw};
    while (!frontier.empty()) {
      asic::Switch* cur = frontier.front();
      frontier.pop_front();
      for (const auto& [peer, peerPortUnused] : adj[cur]) {
        (void)peerPortUnused;
        if (portToward.contains(peer)) continue;
        // peer reaches h through its port to cur.
        for (const auto& back : adj[peer]) {
          if (back.peer == cur) {
            portToward[peer] = back.myPort;
            break;
          }
        }
        frontier.push_back(peer);
      }
    }

    for (const auto& [sw, port] : portToward) {
      sw->l3().add(h.ip(), 32, port);
      sw->l2().add(h.mac(), port);
    }
  }
}

void buildChain(Testbed& tb, std::size_t switches, LinkParams lp,
                asic::SwitchConfig cfg) {
  assert(switches >= 1);
  Host& h0 = tb.addHost();
  Host& h1 = tb.addHost();
  for (std::size_t i = 0; i < switches; ++i) tb.addSwitch(cfg);
  // Port plan: port 0 faces "left", port 1 faces "right".
  tb.link(h0, 0, tb.sw(0), 0, lp.rateBps, lp.delay);
  for (std::size_t i = 0; i + 1 < switches; ++i) {
    tb.link(tb.sw(i), 1, tb.sw(i + 1), 0, lp.rateBps, lp.delay);
  }
  tb.link(tb.sw(switches - 1), 1, h1, 0, lp.rateBps, lp.delay);
  tb.installAllRoutes();
}

void buildDumbbell(Testbed& tb, std::size_t pairs, LinkParams edge,
                   LinkParams bottleneck, asic::SwitchConfig cfg) {
  assert(pairs >= 1);
  if (cfg.ports < pairs + 1) cfg.ports = pairs + 1;
  asic::Switch& left = tb.addSwitch(cfg);
  asic::Switch& right = tb.addSwitch(cfg);
  for (std::size_t i = 0; i < pairs; ++i) {  // senders
    Host& h = tb.addHost();
    tb.link(h, 0, left, i, edge.rateBps, edge.delay);
  }
  for (std::size_t i = 0; i < pairs; ++i) {  // receivers
    Host& h = tb.addHost();
    tb.link(h, 0, right, i, edge.rateBps, edge.delay);
  }
  tb.link(left, pairs, right, pairs, bottleneck.rateBps, bottleneck.delay);
  tb.installAllRoutes();
}

FatTreeIndex buildFatTree(Testbed& tb, std::size_t k, LinkParams lp,
                          asic::SwitchConfig cfg) {
  assert(k >= 2 && k % 2 == 0);
  FatTreeIndex ix;
  ix.k = k;
  const std::size_t r = ix.radix();
  if (cfg.ports < k) cfg.ports = k;

  // Creation order fixes the indices: cores, then per pod aggs + edges.
  for (std::size_t c = 0; c < ix.coreCount(); ++c) tb.addSwitch(cfg);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t a = 0; a < r; ++a) tb.addSwitch(cfg);
    for (std::size_t e = 0; e < r; ++e) tb.addSwitch(cfg);
  }
  for (std::size_t h = 0; h < ix.hostCount(); ++h) tb.addHost();

  // Port plan: edge ports [0,r) → hosts, [r,k) → aggs; agg ports [0,r) →
  // edges, [r,k) → cores; core port p → pod p.
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t e = 0; e < r; ++e) {
      auto& edge = tb.sw(ix.edgeSw(p, e));
      for (std::size_t h = 0; h < r; ++h) {
        tb.link(tb.host(ix.host(p, e, h)), 0, edge, h, lp.rateBps, lp.delay);
      }
      for (std::size_t a = 0; a < r; ++a) {
        tb.link(edge, r + a, tb.sw(ix.aggSw(p, a)), e, lp.rateBps, lp.delay);
      }
    }
    for (std::size_t a = 0; a < r; ++a) {
      auto& agg = tb.sw(ix.aggSw(p, a));
      for (std::size_t i = 0; i < r; ++i) {
        const std::size_t c = a * r + i;
        tb.link(agg, r + i, tb.sw(ix.coreSw(c)), p, lp.rateBps, lp.delay);
      }
    }
  }

  // Routing. Downward: per-host /32s. Upward: ECMP defaults.
  std::vector<std::size_t> upPorts;
  for (std::size_t i = 0; i < r; ++i) upPorts.push_back(r + i);

  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t e = 0; e < r; ++e) {
      auto& edge = tb.sw(ix.edgeSw(p, e));
      for (std::size_t h = 0; h < r; ++h) {
        const Host& hh = tb.host(ix.host(p, e, h));
        edge.l3().add(hh.ip(), 32, h);
        edge.l2().add(hh.mac(), h);
      }
      edge.l3().addMultipath(net::Ipv4Address{0}, 0, upPorts);
    }
    for (std::size_t a = 0; a < r; ++a) {
      auto& agg = tb.sw(ix.aggSw(p, a));
      for (std::size_t e = 0; e < r; ++e) {
        for (std::size_t h = 0; h < r; ++h) {
          agg.l3().add(tb.host(ix.host(p, e, h)).ip(), 32, e);
        }
      }
      agg.l3().addMultipath(net::Ipv4Address{0}, 0, upPorts);
    }
  }
  for (std::size_t c = 0; c < ix.coreCount(); ++c) {
    auto& core = tb.sw(ix.coreSw(c));
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t e = 0; e < r; ++e) {
        for (std::size_t h = 0; h < r; ++h) {
          core.l3().add(tb.host(ix.host(p, e, h)).ip(), 32, p);
        }
      }
    }
  }
  return ix;
}

PathOracle::PathOracle(const Testbed& tb) : tb_(tb) {
  // attachmentOf() is a linear scan per call; snapshot the whole wiring
  // once so path() walks hops in O(1) each.
  for (std::size_t i = 0; i < tb.linkCount(); ++i) {
    const Testbed::Edge& e = tb.edgeAt(i);
    auto& va = peers_[e.a];
    if (va.size() <= e.portA) va.resize(e.portA + 1);
    va[e.portA] = {e.b, e.portB};
    auto& vb = peers_[e.b];
    if (vb.size() <= e.portB) vb.resize(e.portB + 1);
    vb[e.portB] = {e.a, e.portA};
  }
}

std::vector<PathOracle::Hop> PathOracle::path(const Host& src,
                                              const Host& dst,
                                              std::uint16_t srcPort,
                                              std::uint16_t dstPort,
                                              std::uint8_t protocol) const {
  std::vector<Hop> hops;
  const std::uint64_t hash =
      asic::ecmpFlowHash(src.ip(), dst.ip(), protocol, srcPort, dstPort);
  const auto first = peers_.find(&src);
  if (first == peers_.end() || first->second.empty() ||
      first->second[0].node == nullptr) {
    return {};
  }
  Peer cur = first->second[0];  // hosts transmit on NIC port 0
  for (int hop = 0; hop < 64; ++hop) {
    if (cur.node == &dst) return hops;
    const auto* sw = dynamic_cast<const asic::Switch*>(cur.node);
    if (sw == nullptr) return {};  // delivered to the wrong host
    const auto match = sw->l3().match(dst.ip(), hash);
    if (!match) return {};
    hops.push_back({sw, cur.port, match->outPort});
    const auto it = peers_.find(cur.node);
    if (it == peers_.end() || match->outPort >= it->second.size() ||
        it->second[match->outPort].node == nullptr) {
      return {};
    }
    cur = it->second[match->outPort];
  }
  return {};  // > 64 hops: a loop
}

void buildStar(Testbed& tb, std::size_t senders, LinkParams lp,
               asic::SwitchConfig cfg) {
  assert(senders >= 1);
  if (cfg.ports < senders + 1) cfg.ports = senders + 1;
  asic::Switch& hub = tb.addSwitch(cfg);
  for (std::size_t i = 0; i < senders + 1; ++i) {
    Host& h = tb.addHost();
    tb.link(h, 0, hub, i, lp.rateBps, lp.delay);
  }
  tb.installAllRoutes();
}

}  // namespace tpp::host
