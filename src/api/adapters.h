/// \file adapters.h
/// bgls::Backend adapters over the four shipped state representations.
///
/// StateBackend<State> is the bridge between the erased interface and
/// the zero-overhead templated core: its run() constructs an ordinary
/// Simulator<State> with the request's options and delegates, so a
/// Session run is bit-identical to the corresponding direct templated
/// run for the same seed — the erased layer adds one virtual dispatch
/// per *request*, never per gate. The type-erased triple
/// (create_state/apply_op/compute_probability) and collapse route to
/// each backend's native hooks.
///
/// Concrete adapters:
///  - StateVectorBackend    — dense amplitudes, any circuit ≤ 30 qubits;
///  - DensityMatrixBackend  — dense ρ, exact channel ground truth ≤ 12;
///  - StabilizerBackend     — CH form; pure-Clifford circuits run the
///    exact native hooks, Clifford+Rz/T circuits swap in the
///    sum-over-Cliffords hooks (Sec. 4.2) with per-trajectory sampling;
///  - MpsBackend            — tensor networks, ≤ 2-qubit gates, wide
///    low-entanglement circuits.
///
/// All adapters are open for subclassing: override name()/hooks to
/// register a variant (api/registry.h) — the C++ analogue of handing
/// the Python package a custom simulation triple.

#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "api/backend.h"
#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "mps/state.h"
#include "stabilizer/ch_form.h"
#include "stabilizer/near_clifford.h"
#include "statevector/state.h"

namespace bgls {

/// Generic adapter: implements the whole Backend contract for any State
/// usable with Simulator<State>; subclasses supply the initial state,
/// capabilities, and (optionally) custom hooks.
template <typename State>
class StateBackend : public Backend {
 public:
  // --- Type-erased triple + collapse ------------------------------------

  [[nodiscard]] AnyState create_state(const RunRequest& /*request*/,
                                      int num_qubits) const override {
    return AnyState(make_state(num_qubits));
  }

  void apply_op(const Operation& op, AnyState& state,
                Rng& rng) const override {
    apply_erased(op, state.template get<State>(), rng);
  }

  [[nodiscard]] double compute_probability(const AnyState& state,
                                           Bitstring b) const override {
    // ADL: each backend's native compute_probability hook.
    return bgls::compute_probability(state.template get<State>(), b);
  }

  void collapse(AnyState& state, std::span<const Qubit> qubits,
                Bitstring bits) const override {
    State& s = state.template get<State>();
    if constexpr (requires { s.project(qubits, bits); }) {
      s.project(qubits, bits);
    } else {
      detail::throw_error<UnsupportedOperationError>(
          "backend '", name(), "' state type does not support collapse");
    }
  }

  // --- Bulk entry point --------------------------------------------------

  [[nodiscard]] RunResult run(const RunRequest& request) const override {
    require_runnable(request.circuit);
    Simulator<State> simulator = make_simulator(request, request.circuit);
    RunResult out;
    out.backend_id = id();
    out.backend_name = name();
    // The seed overload constructs Rng(seed) exactly like a direct
    // templated run, so records match bit for bit. repetitions == 0
    // still validates and yields the declared-keys empty Result. The
    // simulator serves this one run, so the run consumes its initial
    // state (no copy on the dictionary path); `stats` refers to the
    // counters the run fills.
    const RunStats& stats = simulator.last_run_stats();
    out.measurements = std::move(simulator).run(
        request.circuit, request.repetitions, request.seed);
    out.stats = stats;
    return out;
  }

  [[nodiscard]] bool can_run(const Circuit& circuit,
                             std::string* reason) const override {
    const BackendCapabilities caps = capabilities();
    const auto fail = [&](std::string why) {
      if (reason != nullptr) *reason = std::move(why);
      return false;
    };
    if (circuit.is_parameterized()) {
      return fail("circuit has unresolved parameters; resolve() it first");
    }
    const int n = std::max(1, circuit.num_qubits());
    if (n > caps.max_qubits) {
      return fail(name() + " supports at most " +
                  std::to_string(caps.max_qubits) + " qubits; circuit uses " +
                  std::to_string(n));
    }
    if (!caps.supports_mid_circuit_measurement &&
        circuit.has_measurements() && !circuit.measurements_are_terminal()) {
      return fail(name() + " does not support mid-circuit measurements");
    }
    for (const auto& op : circuit.all_operations()) {
      const Gate& gate = op.gate();
      if (op.is_classically_controlled() && !caps.supports_classical_control) {
        return fail(name() + " does not support classically-controlled " +
                    op.to_string());
      }
      if (gate.is_measurement()) continue;
      if (gate.is_channel() && !caps.supports_channels) {
        return fail(name() + " does not support channels (" + op.to_string() +
                    ")");
      }
      if (gate.arity() > caps.max_gate_arity) {
        return fail(name() + " applies gates of at most " +
                    std::to_string(caps.max_gate_arity) + " qubits; " +
                    op.to_string() + " has " + std::to_string(gate.arity()) +
                    " (decompose_to_arity() first)");
      }
      std::string gate_reason;
      if (!supports_gate(op, &gate_reason)) return fail(std::move(gate_reason));
    }
    return true;
  }

 protected:
  /// A fresh |0…0⟩ of this representation.
  [[nodiscard]] virtual State make_state(int num_qubits) const = 0;

  /// The simulator a run of `circuit` dispatches into; the default uses
  /// the backend's native ADL hooks and the request's options verbatim.
  [[nodiscard]] virtual Simulator<State> make_simulator(
      const RunRequest& request, const Circuit& circuit) const {
    return Simulator<State>(make_state(std::max(1, circuit.num_qubits())),
                            request.simulator_options());
  }

  /// The type-erased apply_op ingredient; defaults to the native hook.
  virtual void apply_erased(const Operation& op, State& state,
                            Rng& rng) const {
    // ADL: each backend's native apply_op hook.
    bgls::apply_op(op, state, rng);
  }

  /// Per-gate eligibility beyond arity/channel checks (the stabilizer
  /// adapter restricts to near-Clifford support here).
  [[nodiscard]] virtual bool supports_gate(const Operation& op,
                                           std::string* reason) const {
    (void)op;
    (void)reason;
    return true;
  }

  /// Throws UnsupportedOperationError with the can_run reason.
  void require_runnable(const Circuit& circuit) const {
    std::string reason;
    if (!can_run(circuit, &reason)) {
      detail::throw_error<UnsupportedOperationError>(
          "backend '", name(), "' cannot run this circuit: ", reason);
    }
  }
};

/// Dense statevector adapter (statevector/state.h).
class StateVectorBackend : public StateBackend<StateVectorState> {
 public:
  [[nodiscard]] std::string name() const override { return "statevector"; }
  [[nodiscard]] BackendId id() const override {
    return BackendId::kStateVector;
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = StateVectorState::kMaxQubits;
    caps.max_gate_arity = 3;
    caps.supports_channels = true;
    caps.supports_mid_circuit_measurement = true;
    caps.supports_classical_control = true;
    return caps;
  }

 protected:
  [[nodiscard]] StateVectorState make_state(int num_qubits) const override {
    return StateVectorState(num_qubits);
  }
};

/// Dense density-matrix adapter (densitymatrix/state.h).
class DensityMatrixBackend : public StateBackend<DensityMatrixState> {
 public:
  [[nodiscard]] std::string name() const override { return "densitymatrix"; }
  [[nodiscard]] BackendId id() const override {
    return BackendId::kDensityMatrix;
  }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = DensityMatrixState::kMaxQubits;
    caps.max_gate_arity = 3;
    caps.supports_channels = true;
    caps.supports_mid_circuit_measurement = true;
    caps.supports_classical_control = true;
    return caps;
  }

 protected:
  [[nodiscard]] DensityMatrixState make_state(int num_qubits) const override {
    return DensityMatrixState(num_qubits);
  }
};

/// CH-form stabilizer adapter (stabilizer/ch_form.h). Pure-Clifford
/// circuits run the exact native hooks (with dictionary batching);
/// circuits with Rz/Phase/T/T† swap in the sum-over-Cliffords hooks of
/// Sec. 4.2, which sample one stochastic Clifford branch per repetition
/// — approximate for non-Clifford angles.
class StabilizerBackend : public StateBackend<CHState> {
 public:
  [[nodiscard]] std::string name() const override { return "stabilizer"; }
  [[nodiscard]] BackendId id() const override { return BackendId::kStabilizer; }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = CHState::kMaxQubits;
    caps.max_gate_arity = 2;
    caps.supports_mid_circuit_measurement = true;
    caps.supports_classical_control = true;
    return caps;
  }

  /// True when every non-measurement gate is Clifford (the exact,
  /// dictionary-batched regime).
  [[nodiscard]] static bool is_pure_clifford(const Circuit& circuit) {
    for (const auto& op : circuit.all_operations()) {
      const Gate& gate = op.gate();
      if (!gate.is_measurement() && !gate.is_clifford()) return false;
    }
    return true;
  }

 protected:
  [[nodiscard]] CHState make_state(int num_qubits) const override {
    return CHState(num_qubits);
  }

  [[nodiscard]] Simulator<CHState> make_simulator(
      const RunRequest& request, const Circuit& circuit) const override {
    if (is_pure_clifford(circuit)) {
      return StateBackend<CHState>::make_simulator(request, circuit);
    }
    SimulatorOptions options = request.simulator_options();
    // Every repetition must explore a fresh stochastic Clifford branch;
    // the dictionary-batched path would evolve (and freeze) a single
    // branch for all samples, so it is forced off here.
    options.disable_sample_parallelization = true;
    return Simulator<CHState>(
        make_state(std::max(1, circuit.num_qubits())),
        [](const Operation& op, CHState& state, Rng& rng) {
          act_on_near_clifford(op, state, rng);
        },
        [](const CHState& state, Bitstring b) { return state.probability(b); },
        options);
  }

  void apply_erased(const Operation& op, CHState& state,
                    Rng& rng) const override {
    act_on_near_clifford(op, state, rng);
  }

  [[nodiscard]] bool supports_gate(const Operation& op,
                                   std::string* reason) const override {
    if (has_near_clifford_support(op)) return true;
    if (reason != nullptr) {
      *reason = name() + " supports Clifford gates plus Rz/Phase/T/T† " +
                "rotations; cannot apply " + op.to_string();
    }
    return false;
  }
};

/// Matrix-product-state adapter (mps/state.h) with the default
/// MPSOptions (no bond cap).
class MpsBackend : public StateBackend<MPSState> {
 public:
  [[nodiscard]] std::string name() const override { return "mps"; }
  [[nodiscard]] BackendId id() const override { return BackendId::kMps; }
  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.max_qubits = MPSState::kMaxQubits;
    caps.max_gate_arity = 2;
    caps.supports_channels = true;
    caps.supports_mid_circuit_measurement = true;
    caps.supports_classical_control = true;
    return caps;
  }

 protected:
  [[nodiscard]] MPSState make_state(int num_qubits) const override {
    return MPSState(num_qubits);
  }
};

/// Factory helpers (one fresh instance each; the global registry keeps
/// its own singletons).
[[nodiscard]] std::shared_ptr<Backend> make_statevector_backend();
[[nodiscard]] std::shared_ptr<Backend> make_densitymatrix_backend();
[[nodiscard]] std::shared_ptr<Backend> make_stabilizer_backend();
[[nodiscard]] std::shared_ptr<Backend> make_mps_backend();

}  // namespace bgls
