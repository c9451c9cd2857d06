/// \file test_cost.cpp
/// The CostModel (service/cost.h): closed-form predictions per backend,
/// the DM-vs-trajectories comparison that replaced the selector's
/// hard-coded qubit cutoff, and the bond-dimension estimate's clamps.

#include <gtest/gtest.h>

#include <cmath>

#include "api/selector.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "service/cost.h"

namespace bgls {
namespace {

using service::CostCoefficients;
using service::CostModel;

/// A channel-bearing n-qubit profile (what the DM-vs-trajectories rule
/// sees).
CircuitProfile channel_profile(int n, std::size_t ops = 20) {
  CircuitProfile profile;
  profile.num_qubits = n;
  profile.num_operations = ops;
  profile.has_channels = true;
  profile.clifford_only = false;
  return profile;
}

TEST(CostModel, DensityMatrixPaysOnePassPerRepetitionOnChannelCircuits) {
  // Simulator runs channels as trajectories on every state, so a
  // channel-bearing circuit re-evolves the 4^n density matrix once per
  // repetition, as the statevector re-evolves its 2^n amplitudes. With
  // the shared sv/dm coefficient the density matrix is never cheaper.
  const CostModel model;
  for (int n = 1; n <= 14; ++n) {
    for (const std::uint64_t reps : {1u, 16u, 1024u, 1u << 13}) {
      EXPECT_GT(model.predict_seconds(channel_profile(n), reps,
                                      BackendId::kDensityMatrix),
                model.predict_seconds(channel_profile(n), reps,
                                      BackendId::kStateVector))
          << "n=" << n << " reps=" << reps;
    }
  }
  // Without the per-repetition and per-job terms, the channel circuit's
  // density-matrix cost is linear in repetitions; a unitary circuit's is
  // one pass at any count.
  CostCoefficients passes_only;
  passes_only.sample_seconds_per_repetition = 0.0;
  passes_only.job_overhead_seconds = 0.0;
  const CostModel bare(passes_only);
  EXPECT_DOUBLE_EQ(
      bare.predict_seconds(channel_profile(6), 1024, BackendId::kDensityMatrix),
      1024 * bare.predict_seconds(channel_profile(6), 1,
                                  BackendId::kDensityMatrix));
  CircuitProfile unitary = channel_profile(6);
  unitary.has_channels = false;
  EXPECT_DOUBLE_EQ(
      bare.predict_seconds(unitary, 1024, BackendId::kDensityMatrix),
      bare.predict_seconds(unitary, 1, BackendId::kDensityMatrix));
}

TEST(CostModel, SelectorUsesCrossoverForChannelCircuits) {
  // End-to-end through BackendSelector. At the default coefficients the
  // channel circuit goes to statevector trajectories at every
  // repetition count. A density-matrix coefficient 2^9 times smaller
  // moves the crossover to 4^n / 2^9 = 2^n, i.e. n = 9: 8 qubits then
  // route to the density matrix and 10 qubits still do not.
  const auto channel_circuit = [](int n) {
    Circuit circuit = ghz_circuit(n);
    circuit.append(Operation(Gate::Channel(depolarize(0.05)), {0}));
    circuit.append(measure({0, 1, 2}, "m"));
    return circuit;
  };
  const BackendSelector selector;
  for (const std::uint64_t reps : {16u, 1024u, 1u << 13}) {
    EXPECT_EQ(selector.select(channel_circuit(8), reps).id,
              BackendId::kStateVector)
        << "reps=" << reps;
  }
  CostCoefficients cheap_dm;
  cheap_dm.dm_seconds_per_element = cheap_dm.sv_seconds_per_element / 512;
  const BackendSelector tuned{CostModel(cheap_dm)};
  for (const std::uint64_t reps : {16u, 1024u}) {
    EXPECT_EQ(tuned.select(channel_circuit(8), reps).id,
              BackendId::kDensityMatrix)
        << "reps=" << reps;
    EXPECT_EQ(tuned.select(channel_circuit(10), reps).id,
              BackendId::kStateVector)
        << "reps=" << reps;
  }
}

TEST(CostModel, PredictionsScaleWithWorkload) {
  const CostModel model;
  const CircuitProfile small = channel_profile(4);
  const CircuitProfile wide = channel_profile(8);
  // More qubits, more ops, more repetitions: all strictly more seconds.
  EXPECT_LT(
      model.predict_seconds(small, 100, BackendId::kStateVector),
      model.predict_seconds(wide, 100, BackendId::kStateVector));
  EXPECT_LT(
      model.predict_seconds(small, 100, BackendId::kStateVector),
      model.predict_seconds(small, 10'000, BackendId::kStateVector));
  // Every prediction includes the fixed per-job overhead.
  EXPECT_GE(model.predict_seconds(small, 1, BackendId::kStabilizer),
            model.coefficients().job_overhead_seconds);
}

TEST(CostModel, UnresolvedBackendsThrow) {
  const CostModel model;
  EXPECT_THROW(
      (void)model.predict_seconds(channel_profile(4), 10, BackendId::kAuto),
      ValueError);
  EXPECT_THROW(
      (void)model.predict_seconds(channel_profile(4), 10, BackendId::kCustom),
      ValueError);
}

TEST(CostModel, BondDimensionEstimateSaturates) {
  CircuitProfile profile;
  profile.num_qubits = 20;
  profile.entangling_gates = 4;  // 0.2 per qubit: shallow chain
  EXPECT_LT(CostModel::estimated_bond_dimension(profile), 2.0);
  // Adversarially dense profile: clamped at 2^(n/2), then at 2^32.
  profile.entangling_gates = 100'000;
  EXPECT_LE(CostModel::estimated_bond_dimension(profile),
            std::pow(2.0, 10.0) + 1e-9);
  profile.num_qubits = 1'000;
  EXPECT_LE(CostModel::estimated_bond_dimension(profile),
            std::pow(2.0, 32.0) + 1e-9);
}

}  // namespace
}  // namespace bgls
