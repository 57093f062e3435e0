// In-memory switch address space for TCPU tests, with scripted permissions.
#pragma once

#include <cstdint>
#include <map>

#include "src/tcpu/tcpu.hpp"

namespace tpp::test {

class FakeMemory final : public tcpu::AddressSpace {
 public:
  std::map<std::uint16_t, std::uint32_t> words;
  std::uint16_t readOnlyAbove = 0xffff;  // addresses >= this are read-only
  std::uint16_t deniedTask = 0xffff;     // this task is grant-denied

  ReadResult read(std::uint16_t address, std::uint16_t taskId) override {
    if (taskId == deniedTask) {
      return ReadResult::fail(core::Fault::GrantViolation);
    }
    const auto it = words.find(address);
    if (it == words.end()) {
      return ReadResult::fail(core::Fault::UnmappedAddress);
    }
    return ReadResult::ok(it->second);
  }

  core::Fault write(std::uint16_t address, std::uint32_t value,
                    std::uint16_t taskId) override {
    if (taskId == deniedTask) return core::Fault::GrantViolation;
    if (address >= readOnlyAbove) return core::Fault::ReadOnlyViolation;
    if (!words.contains(address)) return core::Fault::UnmappedAddress;
    words[address] = value;
    return core::Fault::None;
  }
};

}  // namespace tpp::test
