// Keyed per-generation seed derivation (DESIGN.md §16).
//
// Theorem 1's error bound assumes traffic that is oblivious to the hash
// functions, but a sketch whose seed is fixed at construction leaks it over
// time: an adversary who learns (or guesses) the seed can craft keys that
// collide in a majority of rows and blow the bound silently.  The defense
// is to derive the seed from a secret master key and rotate it on a fixed
// epoch cadence, so crafted collision sets go stale at the next boundary.
//
//   generation(e) = e / rotation_epochs
//   seed(g)       = mix64(master_key ^ mix64(g ^ salt))
//
// Seeds are a pure function of (master_key, generation): a restarted
// monitor, a checkpoint restore and the collector's replica all re-derive
// the same seed for the same generation without shipping key material on
// the wire — frames carry only the generation number.
//
// rotation_epochs == 0 disables rotation entirely: every epoch uses
// base_seed, which is bit-identical to the pre-rotation behavior (every
// checkpoint and wire frame of a rotation-off monitor is generation 0).
#pragma once

#include <cstdint>

#include "common/hash.hpp"

namespace nitro::core {

struct SeedSchedule {
  /// Seed used when rotation is disabled (the classic construction seed).
  std::uint64_t base_seed = 0;
  /// Secret key mixed into every derived seed.  Only meaningful with
  /// rotation enabled; must match between a monitor and any replica that
  /// re-derives its seeds (collector, checkpoint restore).
  std::uint64_t master_key = 0;
  /// Epochs per generation; 0 disables rotation.
  std::uint64_t rotation_epochs = 0;

  bool enabled() const noexcept { return rotation_epochs != 0; }

  std::uint64_t generation_of(std::uint64_t epoch) const noexcept {
    return enabled() ? epoch / rotation_epochs : 0;
  }

  std::uint64_t seed_for(std::uint64_t generation) const noexcept {
    if (!enabled()) return base_seed;
    return mix64(master_key ^ mix64(generation ^ 0x5eedc0de5a17ULL));
  }

  std::uint64_t seed_for_epoch(std::uint64_t epoch) const noexcept {
    return seed_for(generation_of(epoch));
  }

  bool operator==(const SeedSchedule&) const noexcept = default;
};

}  // namespace nitro::core
