// Quickstart: build a three-switch network, write a TPP in assembly, send
// it as a probe, and read back per-hop state — the Fig 1 experience in
// ~60 lines.
//
//   $ ./quickstart
#include <cstdio>
#include <variant>

#include "src/core/assembler.hpp"
#include "src/host/collector.hpp"
#include "src/host/topology.hpp"

int main() {
  using namespace tpp;

  // 1. A linear network: h0 — sw0 — sw1 — sw2 — h1, 1 Gb/s links.
  host::Testbed tb;
  buildChain(tb, /*switches=*/3,
             host::LinkParams{1'000'000'000, sim::Time::us(5)});

  // 2. Write a tiny packet program, exactly as the paper does (§2.1 plus
  //    the switch id so we can label hops).
  const char* source = R"(
      # Which switch am I on, and how full is my egress queue?
      PUSH [Switch:SwitchID]
      PUSH [Queue:QueueSize]
  )";
  auto assembled = core::assemble(source);
  if (auto* err = std::get_if<core::AssemblyError>(&assembled)) {
    std::fprintf(stderr, "asm error on line %d: %s\n", err->line,
                 err->message.c_str());
    return 1;
  }
  const auto program = std::get<core::Program>(assembled);
  std::printf("assembled %zu instructions, %zu wire bytes\n",
              program.instructions.size(), program.wireBytes());

  // 3. Send it as a probe; the destination host echoes the executed TPP.
  auto& prober = tb.host(0);
  auto& target = tb.host(1);
  prober.onTppResult([&](const core::ExecutedTpp& tpp) {
    std::printf("\nprobe returned after %u hops (fault: %s)\n",
                tpp.header.hopNumber,
                std::string(core::faultName(tpp.header.faultCode)).c_str());
    const auto records = host::splitStackRecords(tpp, 2).records;
    std::printf("%-6s %-10s %-12s\n", "hop", "switch-id", "queue-bytes");
    for (std::size_t h = 0; h < records.size(); ++h) {
      std::printf("%-6zu %-10u %-12u\n", h, records[h][0], records[h][1]);
    }
  });
  prober.sendProbe(target.mac(), target.ip(), program);

  // 4. Run the simulation to completion.
  tb.sim().run();
  return 0;
}
