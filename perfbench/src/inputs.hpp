// Inputs of the admission benchmark: platforms and generated applications.
// Every generator is a pure function of its seed, so a workload's inputs
// repeat exactly for the same --seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "kpn/application.hpp"
#include "util/rng.hpp"

namespace perfbench {

using AppPtr = std::shared_ptr<const rtsm::kpn::Application>;

/// The 6x6 ARM/MONTIUM/IO mesh of benches X7 and X8: 10 six-slot ARM and
/// 10 single-context MONTIUM tiles interleaved, IO tiles "A/D" and "Sink"
/// as the HIPERLAN/2 fixtures expect.
[[nodiscard]] rtsm::arch::Platform make_6x6_platform(const std::string& name);

/// The n x n mesh of bench X10: IO corners "SRC"/"DST", the rest
/// alternating quad-slot ARM and single-context MONTIUM tiles.
[[nodiscard]] rtsm::arch::Platform make_mesh_platform(std::uint32_t n);

/// The recurring skeleton pool of bench X8: 7 synthetic ARM chains of 2-4
/// processes plus the HIPERLAN/2 receiver (BPSK mode) pinned to A/D and
/// Sink. Fixed, like X8's: the seed varies which skeletons arrive when,
/// not the skeletons themselves, so the pool's energy and size do not
/// swing with the seed.
[[nodiscard]] std::vector<AppPtr> make_recurring_pool();

/// A rate-inconsistent application: a 2-process ARM chain whose channel
/// carries 16 tokens/symbol through ports moving 3 tokens/cycle. Fixed
/// (independent of the seed); the library throws when it derives the
/// implementation's cycles per symbol.
[[nodiscard]] AppPtr make_malformed_app();

/// A freshly generated synthetic application of @p processes processes,
/// chain or (@p fork_join) fork-join, 16-64 tokens per channel, every
/// process with an ARM and a MONTIUM implementation, no fixtures.
[[nodiscard]] AppPtr make_fresh_app(rtsm::Rng& rng, std::uint32_t processes,
                                    bool fork_join, const std::string& name);

/// A mode of a resident streaming application: a @p processes-stage
/// chain named P0..Pn-1 with ARM and MONTIUM implementations and freshly
/// drawn token volumes (16-64 per channel) and WCETs (light: at most 15%
/// of a tile per process). Two modes of the same @p processes share their process
/// names, so a switch between them is a pinned in-place replan with a new
/// CSDF verification.
[[nodiscard]] AppPtr make_resident_mode(rtsm::Rng& rng, std::uint32_t processes,
                                        const std::string& name);

/// The seven HIPERLAN/2 demapping-mode variants (the receiver's modes).
[[nodiscard]] std::vector<AppPtr> make_hiperlan2_modes();

}  // namespace perfbench
