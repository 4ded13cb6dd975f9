// Cheap deterministic non-cryptographic hashing.
//
// Used wherever the platform needs a stable, seed-free keying or jitter
// decision that must replay identically run to run: per-lease renewal
// phase jitter (disco::lease_renewal_phase) and the fault injector's
// per-link streams, keyed by node name (net::Network). Not for security
// (see pmp::crypto) and not for randomness (see pmp::Rng) — the same key
// must give the same answer on every node that computes it.
#pragma once

#include <cstdint>
#include <string_view>

namespace pmp {

/// FNV-1a, 64-bit. Stable across platforms and runs.
constexpr std::uint64_t fnv1a64(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Mix one more 64-bit word into a hash (for composite keys like
/// (registrar, lease) without building a string).
constexpr std::uint64_t fnv1a64_mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffull;
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace pmp
