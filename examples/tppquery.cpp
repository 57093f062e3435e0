// tppquery — run a TPP from stdin against a simulated network and print
// the per-hop results: the fastest way to try a query idea.
//
//   $ echo 'PUSH [Switch:SwitchID]
//           PUSH [Queue:QueueSize]
//           PUSH [Link:TX-Utilization]' | ./tppquery --switches 4 --load 60
//
// Options:
//   --switches N   chain length (default 3)
//   --load PCT     background load on the path, percent of 1 Gb/s (default 0)
//   --probes N     probes to send, 1 ms apart (default 1; >1 prints means)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <variant>

#include "src/core/assembler.hpp"
#include "src/host/collector.hpp"
#include "src/host/flow.hpp"
#include "src/host/topology.hpp"

int main(int argc, char** argv) {
  using namespace tpp;

  std::size_t switches = 3;
  double loadPct = 0;
  int probes = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--switches")) switches = std::strtoul(argv[i + 1], nullptr, 10);
    if (!std::strcmp(argv[i], "--load")) loadPct = std::strtod(argv[i + 1], nullptr);
    if (!std::strcmp(argv[i], "--probes")) probes = std::atoi(argv[i + 1]);
  }

  std::ostringstream source;
  source << std::cin.rdbuf();
  auto assembled = core::assemble(source.str());
  if (const auto* err = std::get_if<core::AssemblyError>(&assembled)) {
    std::fprintf(stderr, "tppquery: line %d: %s\n", err->line,
                 err->message.c_str());
    return 1;
  }
  const auto& program = std::get<core::Program>(assembled);
  const std::size_t perHop = program.instructions.size();
  if (perHop == 0) {
    std::fprintf(stderr, "tppquery: empty program\n");
    return 1;
  }

  host::Testbed tb;
  buildChain(tb, switches, host::LinkParams{1'000'000'000, sim::Time::us(5)});

  std::unique_ptr<host::PacedFlow> background;
  if (loadPct > 0) {
    host::FlowSpec spec;
    spec.dstMac = tb.host(1).mac();
    spec.dstIp = tb.host(1).ip();
    spec.rateBps = loadPct / 100.0 * 1e9;
    background = std::make_unique<host::PacedFlow>(tb.host(0), spec, 99);
    background->start(sim::Time::zero());
    tb.sim().run(sim::Time::ms(50));  // warm the counters
  }

  host::HopSampleAverager averager(perHop);
  std::size_t answered = 0;
  tb.host(0).onTppResult([&](const core::ExecutedTpp& tpp) {
    if (tpp.header.faultCode != core::Fault::None) {
      std::fprintf(stderr, "tppquery: fault: %s\n",
                   std::string(core::faultName(tpp.header.faultCode)).c_str());
      return;
    }
    const auto records =
        tpp.header.mode == core::AddressingMode::Hop
            ? host::splitHopRecords(tpp)
            : host::splitStackRecords(tpp, perHop,
                                      program.initialSp / core::kWordSize)
                  .records;
    averager.add(records);
    ++answered;
  });

  for (int i = 0; i < probes; ++i) {
    tb.sim().schedule(sim::Time::ms(i), [&] {
      tb.host(0).sendProbe(tb.host(1).mac(), tb.host(1).ip(), program);
    });
  }
  tb.sim().run(tb.sim().now() + sim::Time::ms(probes + 10));
  if (background) background->stop();

  if (answered == 0) {
    std::fprintf(stderr, "tppquery: no probe returned\n");
    return 1;
  }

  std::printf("answered %zu/%d probes; per-hop means:\n", answered, probes);
  std::printf("%-6s", "hop");
  for (std::size_t v = 0; v < perHop; ++v) {
    char col[32];  // "value" + worst-case 20-digit size_t
    std::snprintf(col, sizeof col, "value%zu", v);
    std::printf(" %-14s", col);
  }
  std::printf("\n");
  for (std::size_t h = 0; h < averager.hopCount(); ++h) {
    std::printf("%-6zu", h);
    for (std::size_t v = 0; v < perHop; ++v) {
      std::printf(" %-14.1f", averager.mean(h, v));
    }
    std::printf("\n");
  }
  std::printf("\nprogram: %zu instructions, %zu wire bytes\n",
              program.instructions.size(), program.wireBytes());
  return 0;
}
