// The paper's four benchmarks (Sec. 6), rebuilt for the tgsim mini-RISC:
//
//   * Cacheloop — idle loops executing entirely from the I-cache; minimal
//     bus interaction. Used to scale core counts and measure best-case TG
//     speedup.
//   * SP matrix — single-processor matrix multiply in private memory;
//     accuracy/speedup in the simplest environment.
//   * MP matrix — multiprocessor matrix multiply with operands in shared
//     (non-cacheable) memory, per-row result commits under a hardware
//     semaphore, and a flag barrier: stresses synchronization and resource
//     contention.
//   * DES — multiprocessor block encryption/decryption pipeline with
//     S-box tables in private (cacheable) memory, block I/O in shared
//     memory, per-block semaphore-guarded commits and a final barrier.
//     (A 16-round Feistel cipher with table lookups stands in for full DES:
//     only the traffic profile matters to the methodology.)
//
// Every factory also publishes the PollSpecs for its polling loops with the
// in-loop idle matched to the core's taken-branch penalty, reproducing the
// paper's "knowledge of the polling behaviour of the IP core".
#pragma once

#include "apps/workload.hpp"
#include "cpu/core.hpp"

namespace tgsim::apps {

struct CacheloopParams {
    u32 n_cores = 2;
    u32 iterations = 100000;
};
[[nodiscard]] Workload make_cacheloop(const CacheloopParams& p,
                                      const cpu::CpuTiming& timing = {});

struct SpMatrixParams {
    u32 n = 24; ///< matrix dimension (single core)
};
[[nodiscard]] Workload make_sp_matrix(const SpMatrixParams& p,
                                      const cpu::CpuTiming& timing = {});

struct MpMatrixParams {
    u32 n_cores = 2;
    u32 n = 24; ///< matrix dimension; rows are split across cores
};
[[nodiscard]] Workload make_mp_matrix(const MpMatrixParams& p,
                                      const cpu::CpuTiming& timing = {});

struct DesParams {
    u32 n_cores = 3;
    u32 blocks_per_core = 6; ///< 64-bit blocks encrypted+decrypted per core
};
[[nodiscard]] Workload make_des(const DesParams& p,
                                const cpu::CpuTiming& timing = {});

/// Reference model of the benchmark cipher (for tests and data generation):
/// encrypts the 64-bit block (l,r) with `key` over 16 rounds.
void feistel_encrypt_ref(u32& l, u32& r, u32 key);
void feistel_decrypt_ref(u32& l, u32& r, u32 key);

/// Deterministic pseudo-data used to fill benchmark inputs.
[[nodiscard]] constexpr u32 pattern_word(u32 i) noexcept {
    u32 x = i * 0x9E3779B9u + 0x7F4A7C15u;
    x ^= x >> 15;
    x *= 0x2C1B3C6Du;
    x ^= x >> 12;
    return x;
}

} // namespace tgsim::apps
