/// \file backend.h
/// The type-erased runtime backend interface.
///
/// The paper's central API point (Sec. 3.1) is that a Simulator is
/// assembled from three runtime ingredients — an initial state of *any*
/// representation, an `apply_op` function, and a `compute_probability`
/// function. The templated core reproduces that with compile-time
/// polymorphism (Simulator<State>); this module re-exposes it with
/// runtime polymorphism so one call site can route between state
/// representations per request, the shape qsim/Cirq give their
/// interchangeable simulation strategies:
///
///  - AnyState: a copyable type-erased state handle;
///  - Backend: the abstract strategy — the BGLS triple (create state,
///    apply op, compute probability) plus measurement collapse,
///    capability flags for routing, and one bulk run() entry point
///    that dispatches *into* the zero-overhead templated Simulator, so
///    the erased layer costs one virtual call per request, not per
///    gate. Session::run is its one caller; batches and async jobs go
///    through Session::run too.
///
/// Library adapters for the four shipped representations live in
/// api/adapters.h; user code can subclass Backend (or an adapter)
/// directly and register it under a name (api/registry.h) — the C++
/// analogue of handing the Python package a custom
/// (state, apply_op, compute_probability) triple.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <typeinfo>

#include "api/run_types.h"
#include "util/error.h"
#include "util/rng.h"

namespace bgls {

/// Copyable type-erased simulation state. Holds any copy-constructible
/// State; access requires naming the exact stored type (checked at
/// runtime). Copying clones the underlying state — the same semantics
/// the templated sampler relies on for per-trajectory copies.
class AnyState {
 public:
  AnyState() = default;

  template <typename State>
  explicit AnyState(State state)
      : impl_(std::make_unique<Model<State>>(std::move(state))) {}

  AnyState(const AnyState& other)
      : impl_(other.impl_ ? other.impl_->clone() : nullptr) {}
  AnyState& operator=(const AnyState& other) {
    if (this != &other) impl_ = other.impl_ ? other.impl_->clone() : nullptr;
    return *this;
  }
  AnyState(AnyState&&) noexcept = default;
  AnyState& operator=(AnyState&&) noexcept = default;

  /// True when a state is held.
  [[nodiscard]] bool has_value() const { return impl_ != nullptr; }

  /// True when the held state is exactly `State`.
  template <typename State>
  [[nodiscard]] bool holds() const {
    return impl_ != nullptr && impl_->type() == typeid(State);
  }

  /// The held state; throws ValueError when empty or of another type.
  template <typename State>
  [[nodiscard]] State& get() {
    require_type(typeid(State));
    return static_cast<Model<State>*>(impl_.get())->state;
  }
  template <typename State>
  [[nodiscard]] const State& get() const {
    require_type(typeid(State));
    return static_cast<const Model<State>*>(impl_.get())->state;
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    [[nodiscard]] virtual std::unique_ptr<Concept> clone() const = 0;
    [[nodiscard]] virtual const std::type_info& type() const = 0;
  };

  template <typename State>
  struct Model final : Concept {
    explicit Model(State s) : state(std::move(s)) {}
    [[nodiscard]] std::unique_ptr<Concept> clone() const override {
      return std::make_unique<Model>(state);
    }
    [[nodiscard]] const std::type_info& type() const override {
      return typeid(State);
    }
    State state;
  };

  void require_type(const std::type_info& expected) const {
    BGLS_REQUIRE(impl_ != nullptr, "AnyState is empty");
    BGLS_REQUIRE(impl_->type() == expected, "AnyState holds '",
                 impl_->type().name(), "', not the requested '",
                 expected.name(), "'");
  }

  std::unique_ptr<Concept> impl_;
};

/// Abstract simulation strategy. Instances are stateless and
/// thread-safe: every method is const, and run() builds a fresh
/// templated simulator per call, so one Backend instance may serve
/// concurrent requests (the registry hands out shared_ptrs).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Registered name, e.g. "statevector".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Identifier for routing (kCustom for user backends).
  [[nodiscard]] virtual BackendId id() const = 0;

  /// Static capability flags (consulted by can_run and the selector).
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  // --- The type-erased BGLS triple (paper Sec. 3.1) + collapse ----------

  /// A fresh |0…0⟩ state on num_qubits qubits. The adapters ignore
  /// `request`; a user backend may read its knobs.
  [[nodiscard]] virtual AnyState create_state(const RunRequest& request,
                                              int num_qubits) const = 0;

  /// The apply_op ingredient (channels sampled as trajectories where
  /// supported; stochastic gates draw from `rng`).
  virtual void apply_op(const Operation& op, AnyState& state,
                        Rng& rng) const = 0;

  /// The compute_probability ingredient: |⟨b|ψ⟩|².
  [[nodiscard]] virtual double compute_probability(const AnyState& state,
                                                   Bitstring b) const = 0;

  /// Projects the listed qubits onto the corresponding bits of `bits`
  /// and renormalizes (measurement collapse / branching).
  virtual void collapse(AnyState& state, std::span<const Qubit> qubits,
                        Bitstring bits) const = 0;

  // --- Bulk entry point --------------------------------------------------

  /// Samples request.circuit end to end by dispatching into the
  /// templated core. Bit-identical to a direct
  /// `Simulator<State>(initial, request.simulator_options())
  ///      .run(circuit, repetitions, seed)`
  /// for the adapter backends. repetitions == 0 still validates and
  /// returns an empty well-formed result.
  [[nodiscard]] virtual RunResult run(const RunRequest& request) const = 0;

  /// True when this backend can execute `circuit`; otherwise false
  /// with a human-readable explanation in *reason (when non-null).
  [[nodiscard]] virtual bool can_run(const Circuit& circuit,
                                     std::string* reason) const = 0;
  [[nodiscard]] bool can_run(const Circuit& circuit) const {
    return can_run(circuit, nullptr);
  }
};

}  // namespace bgls
