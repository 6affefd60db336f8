#pragma once

namespace slowcc::analysis {

/// Closed-form properties of AIMD(a, b) congestion control used
/// throughout the paper's discussion.

/// Responsiveness (paper §3, after Floyd et al.): number of RTTs of
/// persistent congestion (one loss per RTT) until the sending rate has
/// halved. TCP (b = 1/2) has responsiveness 1.
[[nodiscard]] double aimd_responsiveness_rtts(double b);

/// Steady-state smoothness metric of AIMD(b): the rate ratio across a
/// loss, i.e. 1 - b (paper §4.3).
[[nodiscard]] double aimd_smoothness(double b);

}  // namespace slowcc::analysis
