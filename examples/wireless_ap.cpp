// Wireless extension (paper §2.3, "Other possibilities"): "they can also
// be used in wireless networks where access points can annotate end-host
// packets with channel SNR which changes very quickly."
//
// An access point is a switch whose client-facing port has a Link:SNR
// register updated by the radio PHY (here: a random-walk channel model).
// The station's TPP probes return per-packet SNR samples at RTT
// granularity — fast enough to follow fades that second-scale management
// polling cannot see.
//
//   $ ./wireless_ap
#include <cstdio>

#include "src/core/memory_map.hpp"
#include "src/core/program.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"
#include "src/sim/random.hpp"

int main() {
  using namespace tpp;

  host::Testbed tb;
  // station (h0) — AP (sw0) — wired network (sw1) — server (h1)
  buildChain(tb, 2, host::LinkParams{100'000'000, sim::Time::us(50)});
  auto& ap = tb.sw(0);

  // Radio PHY: Gauss-Markov SNR random walk on the station-facing port,
  // updated every millisecond.
  sim::Rng rng(7);
  double snrDb = 30.0;
  std::function<void()> fade = [&] {
    snrDb = 0.9 * snrDb + 0.1 * 25.0 + rng.normal(0.0, 1.5);
    snrDb = std::max(snrDb, 0.0);
    ap.setPortSnr(/*port=*/0, static_cast<std::uint32_t>(snrDb * 100.0));
    if (tb.sim().now() < sim::Time::ms(200)) {
      tb.sim().schedule(sim::Time::ms(1), fade);
    }
  };
  fade();

  // The station probes the DOWNLINK: the server sends the probe so the
  // TPP's egress port at the AP is the wireless port, where Link:SNR
  // lives. (The station could equally read it on its uplink via a shim.)
  core::ProgramBuilder b;
  b.push(core::addr::SwitchId);
  b.push(core::addr::WirelessSnr);
  b.reserve(8);
  const auto program = b.buildChecked();

  sim::TimeSeries samples;
  tb.host(1).onTppResult([&](const core::ExecutedTpp& tpp) {
    const auto records = host::splitStackRecords(tpp, 2).records;
    // Hop 1 is the AP (the probe traverses sw1 then sw0).
    if (records.size() == 2) {
      samples.add(tb.sim().now(), records[1][1] / 100.0);
    }
  });

  std::function<void()> probe = [&] {
    tb.host(1).sendProbe(tb.host(0).mac(), tb.host(0).ip(), program);
    if (tb.sim().now() < sim::Time::ms(200)) {
      tb.sim().schedule(sim::Time::ms(2), probe);
    }
  };
  probe();

  tb.sim().run(sim::Time::ms(210));

  std::printf("per-probe SNR samples at the AP's wireless port:\n");
  std::printf("t(ms),snr(dB)\n");
  for (std::size_t i = 0; i < samples.size(); i += 10) {
    std::printf("%.0f,%.2f\n", samples.points()[i].first.toMillis(),
                samples.points()[i].second);
  }
  std::printf("\ncollected %zu SNR samples in 200 ms (one per ~2 ms RTT "
              "probe)\n", samples.size());
  return samples.size() > 50 ? 0 : 1;
}
