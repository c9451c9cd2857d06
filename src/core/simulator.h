/// \file simulator.h
/// The gate-by-gate sampling simulator — the paper's core contribution
/// (Secs. 2–3), templated over the state representation.
///
/// Algorithm (Bravyi–Gosset–Liu, sketched in Sec. 2 of the paper):
///   1. b ← 0...0 (a "hidden variable" sample of the instantaneous
///      output distribution).
///   2. For each gate: apply it to the state; enumerate the candidate
///      bitstrings that vary b over the gate's support; resample b from
///      the candidates' bitstring probabilities.
///   3. The final b is a sample of |⟨b|ψ_f⟩|².
///
/// Exactly like the Python package, a Simulator is assembled from three
/// ingredients (Sec. 3.1): an initial state of any representation, an
/// `apply_op` function, and a `compute_probability` function. For the
/// library's own state types the two functions default to the
/// ADL-discovered free functions each backend provides, and the
/// simulator can additionally use backend members for exact channel
/// branching and measurement collapse.
///
/// Features reproduced from Sec. 3.2:
///  - automatic sample parallelization (3.2.3): on unitary circuits with
///    terminal measurements, all repetitions evolve one state while a
///    bitstring→multiplicity dictionary is resampled per gate via exact
///    multinomial splitting, so cost saturates once the dictionary
///    reaches the 2^n unique-bitstring ceiling (Fig. 2);
///  - quantum trajectories for channels and mid-circuit measurements
///    (3.2.1): per-repetition evolution. Channels use a *joint*
///    Kraus-branch × candidate update (equivalent to running BGLS on the
///    channel's unitary dilation and discarding the environment bit),
///    which keeps the hidden-variable coupling exact even for non-unital
///    channels. The weight of (branch k, candidate c) is |(K_k ψ)[c]|²,
///    and only the drawn operator is applied to the state, which is then
///    renormalized. States with amplitude() (statevector, MPS) compute
///    every weight from the 2^k candidates' amplitudes, a 2^k × 2^k
///    product per branch. Other states (density matrix, user-defined
///    states), and an MPS whose bond cap can truncate a multi-qubit
///    operator, apply each operator to a copy of the state and read the
///    weights off the copies. Mid-circuit measurements read their
///    outcome off the current bitstring — a faithful sample by the BGL
///    invariant — and collapse the state accordingly.
///
/// Exact monomial updates. A diagonal or permutation unitary (one
/// nonzero per row and per column: the kernels' kDiagonal and
/// kPermutation classes, cached per gate by Gate::compiled_unitary)
/// maps |x⟩ to a unit phase times |π(x)⟩. If b samples |ψ|², π(b) then
/// samples |Gψ|² exactly, so after such a gate the sampler moves b (on
/// the dictionary path, every entry) to π(b) instead of resampling it;
/// a diagonal gate leaves b where it is. This generalizes the paper's
/// diagonal-gate skip. It holds only when the state applies the gate's
/// own matrix, so it needs native hooks and, where the state has it,
/// `applies_exactly(qubits)` (a bond-capped MPS says false for two
/// qubits). Custom hooks may apply something else, as near-Clifford's
/// sampled Clifford branches do, so they resample after every gate as
/// the paper's algorithm does. Dense and controlled gates and channels
/// always resample. RunCounters::monomial_moves counts the moves.
///
/// Deferred diagonal gates. The sampler reads only probabilities, and a
/// diagonal gate changes none, so its phases matter only once a gate
/// that mixes amplitudes acts on one of its qubits. On the dictionary
/// path, with native hooks and a state that applies a group of diagonal
/// gates in one pass (DiagonalGrouping: the statevector, from 2^14
/// amplitudes up), a diagonal gate joins a pending group instead of
/// being applied. The group is applied just before the first later gate
/// that is not diagonal and acts on one of its qubits, or before a
/// diagonal gate that would make it wider than the state's limit (10
/// qubits); gates on other qubits commute with it and go as usual, and
/// their resamples read |e^{iφ}a|² = |a|². A group of one gate is
/// applied as that gate; a group still pending at the end is never
/// applied. The group's phases are multiplied together before they meet
/// the amplitudes, and they meet them after gates they used to precede,
/// so a deferred run rounds differently from a gate-by-gate one and a
/// draw at a near-even split can flip. RunCounters::state_applications
/// still counts every gate; the kernels' apply counters count passes.
///
/// One loop per path, at every thread count. A run draws one key from
/// the caller's Rng and keys every later draw to a position in the run:
///  - trajectory r draws from Rng(mix_key(key, r));
///  - on the dictionary path, entry `bits` at gate g draws its
///    multinomial split from Rng(mix_key(mix_key(key, g), bits)).
/// A trajectory run splits into min(repetitions, kMaxShards) contiguous
/// shards, which fan out across the thread pool
/// (SimulatorOptions::num_threads); a dictionary run is one shard that
/// resamples each gate's entries in order on the calling thread. The
/// split fixes where trace spans, progress prefixes and checkpoint
/// cursors fall, but no draw depends on it, on the thread count or on
/// execution order. So one seed gives the same records, counters,
/// progress sequence and span tree at every thread count.
///
/// Only a trajectory run checkpoints (core/checkpoint.h), each time a
/// shard has done `checkpoint.every` more repetitions or finished. A
/// dictionary run completes every repetition at its final gate, so it
/// takes no checkpoint and resumes none: a rerun reproduces its bytes.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/checkpoint.h"
#include "core/progress.h"
#include "core/result.h"
#include "engine/context.h"  // the pool shards fan out on
#include "obs/trace.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/timing.h"

namespace bgls {

/// Instrumentation for the most recent run (used by the Fig. 2 bench to
/// demonstrate dictionary saturation and by the cost-model
/// microbenches): the exact counters plus what scheduling decides.
struct RunStats : RunCounters {
  /// Whether the dictionary path was used.
  bool used_sample_parallelization = false;
  /// Worker threads available to the run: the resolved num_threads,
  /// capped at the shard count.
  std::size_t threads_used = 1;
  /// Per-shard counters in shard order (see file comment). A trajectory
  /// shard counts its own evolutions; the dictionary path's one shard
  /// counts only its probability evaluations, since its one evolution
  /// is shared.
  std::vector<RunCounters> per_shard;
  /// Phase wall times, milliseconds. Scheduling-dependent (unlike the
  /// counters above) and therefore excluded from the byte-stable run
  /// reports; surfaced by `bgls_run --verbose` and the daemon's status
  /// op. queue_wait_ms is filled by the service scheduler (time from
  /// admission to run start; 0 for direct Session calls); optimize_ms
  /// and sample_ms by Session::run (circuit fusion / backend dispatch);
  /// evolve_ms by the dictionary path (gate applies on the shared state
  /// plus the per-gate dictionary merges, a subset of sample_ms).
  double queue_wait_ms = 0.0;
  double optimize_ms = 0.0;
  double evolve_ms = 0.0;
  double sample_ms = 0.0;
};

/// States the simulator branches channels on exactly: a Kraus operator
/// applies without renormalizing, and renormalize() restores unit norm.
template <typename S>
concept KrausBranching =
    requires(S s, const Matrix& m, std::span<const Qubit> qubits) {
      s.apply_matrix(m, qubits);
      s.renormalize();
    };

/// States that expose ⟨b|ψ⟩ directly (statevector, MPS). Their channel
/// weights come from the candidates' amplitudes, which assumes
/// compute_probability(s, b) == |s.amplitude(b)|² and that apply_matrix
/// is exact. A state whose apply_matrix can truncate says so through an
/// optional `bool applies_exactly(std::span<const Qubit>) const`, and
/// where that is false its weights come from per-branch copies.
template <typename S>
concept AmplitudeReadable = requires(const S& s, Bitstring b) {
  { s.amplitude(b) } -> std::convertible_to<Complex>;
};

/// States that apply a group of diagonal gates in one pass
/// (statevector): diagonal_group_qubits() is the widest group the state
/// takes, in qubits, and 0 where it applies such gates one by one.
template <typename S>
concept DiagonalGrouping =
    requires(S s, const S& cs, std::span<const Operation* const> ops) {
      { cs.num_qubits() } -> std::convertible_to<int>;
      { cs.diagonal_group_qubits() } -> std::convertible_to<int>;
      s.apply_diagonal_group(ops);
    };

/// Tuning knobs.
struct SimulatorOptions {
  /// Force-disable the dictionary batching of Sec. 3.2.3 even when the
  /// circuit allows it (used by the Fig. 2 ablation).
  bool disable_sample_parallelization = false;
  /// Worker threads a trajectory run's shards fan out on: 1 (default)
  /// runs them on the calling thread, 0 auto-detects hardware
  /// concurrency, N > 1 uses the process-wide pool for N
  /// (EngineContext::shared). Never changes what a run samples.
  int num_threads = 1;
  /// Cooperative stop handle, polled at bounded intervals (per gate and
  /// per shard). Inert by default. Scheduling-only: an aborted run
  /// throws CancelledError/DeadlineExceededError and discards its
  /// partial work; it never alters what an uncancelled run samples, nor
  /// any shared state later runs depend on.
  CancellationToken cancel_token{};
  /// Streaming partial histograms (core/progress.h): run() emits
  /// cumulative per-key histograms every `progress.every` completed
  /// repetitions of the canonical order. sample() ignores it.
  /// Observation-only: never changes the sampled records.
  ProgressOptions progress{};
  /// Optional telemetry trace (obs/trace.h) run()/sample() record shard
  /// and phase spans into; non-owning, may be null. Observation-only:
  /// spans time existing work and never touch RNG state, so a traced
  /// run samples exactly what an untraced one does.
  obs::Trace* trace = nullptr;
  /// Checkpoint capture (core/checkpoint.h): a trajectory run() emits
  /// resumable RunCheckpoint snapshots every `checkpoint.every`
  /// completed repetitions within a shard plus at shard completion.
  /// The dictionary path and sample() take none. Observation-only:
  /// capture never changes the sampled records.
  CheckpointOptions checkpoint{};
  /// Resume a previous trajectory run from its checkpoint: run()
  /// validates the checkpoint against this request's shape (run key,
  /// totals, shard split) and continues it, producing a final histogram
  /// and report counters bit-identical to the uninterrupted run. The
  /// request must carry the same circuit and seed as the checkpointed
  /// one; a run on the dictionary path rejects it with ValueError.
  /// Intermediate progress updates are suppressed on a resumed run; the
  /// final update still fires.
  std::shared_ptr<const RunCheckpoint> resume{};
};

/// Gate-by-gate sampler over an arbitrary state representation.
///
/// State requirements (checked at compile time where used):
///  - copy-constructible (fresh copy per run / trajectory);
///  - ADL-visible `apply_op(const Operation&, State&, Rng&)` and
///    `compute_probability(const State&, Bitstring)` — or explicit
///    callables passed to the constructor (the Python package's API).
///    The ADL apply_op must apply a unitary gate's own matrix exactly
///    (up to a global phase) wherever `applies_exactly` does not say
///    otherwise: the monomial updates (see file comment) rely on it;
///  - optional members for full feature support:
///      `project(std::span<const Qubit>, Bitstring)` (mid-circuit
///      measurement), `apply_matrix(const Matrix&, std::span<const
///      Qubit>)` + `renormalize()` (exact channel branching, see
///      KrausBranching), `amplitude(Bitstring)` (channel weights
///      without per-branch copies, see AmplitudeReadable),
///      `bool applies_exactly(std::span<const Qubit>) const` (false
///      where an apply on those qubits can truncate; it may depend on
///      the qubits and the state's configuration, not its amplitudes).
template <typename State>
class Simulator {
 public:
  using ApplyOpFn = std::function<void(const Operation&, State&, Rng&)>;
  using ProbabilityFn = std::function<double(const State&, Bitstring)>;

  /// Shard count cap: a trajectory run splits into
  /// min(repetitions, kMaxShards) shards (at least one).
  static constexpr std::uint64_t kMaxShards = 16;

  /// Builds a simulator whose apply/probability hooks are the backend's
  /// ADL free functions.
  explicit Simulator(State initial_state, SimulatorOptions options = {})
      : initial_state_(std::move(initial_state)),
        options_(options),
        apply_op_([](const Operation& op, State& s, Rng& rng) {
          apply_op(op, s, rng);
        }),
        compute_probability_([](const State& s, Bitstring b) {
          return compute_probability(s, b);
        }),
        hooks_are_native_(true) {}

  /// The paper's three-ingredient constructor: initial state, apply_op,
  /// compute_probability. With custom hooks the simulator treats the
  /// state as a black box: channels are routed through `apply` followed
  /// by a standard candidate update.
  Simulator(State initial_state, ApplyOpFn apply, ProbabilityFn probability,
            SimulatorOptions options = {})
      : initial_state_(std::move(initial_state)),
        options_(options),
        apply_op_(std::move(apply)),
        compute_probability_(std::move(probability)),
        hooks_are_native_(false) {}

  /// Runs the circuit end-to-end `repetitions` times and returns the
  /// measurement records, mirroring cirq.Simulator.run. The circuit must
  /// contain at least one measurement and must be fully resolved.
  /// Records come in repetition order.
  Result run(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    return run_impl(circuit, repetitions, rng, /*consume_state=*/false);
  }

  /// Convenience overload with a seed instead of an engine.
  Result run(const Circuit& circuit, std::uint64_t repetitions = 1,
             std::uint64_t seed = 0) & {
    Rng rng(seed);
    return run(circuit, repetitions, rng);
  }

  /// The same run for a simulator built for it alone (a backend's run):
  /// the dictionary path evolves the initial state itself instead of a
  /// copy, which saves a copy and its page faults on a large state and
  /// leaves the simulator unfit for another run. last_run_stats() is
  /// filled as usual.
  Result run(const Circuit& circuit, std::uint64_t repetitions = 1,
             std::uint64_t seed = 0) && {
    Rng rng(seed);
    return run_impl(circuit, repetitions, rng, /*consume_state=*/true);
  }

  /// Samples final bitstrings over *all* qubits, ignoring measurement
  /// gates (the form the paper's runtime benchmarks use). Returns
  /// outcome counts.
  Counts sample(const Circuit& circuit, std::uint64_t repetitions, Rng& rng) {
    check_runnable(circuit, /*require_measurements=*/false);
    const RunScope scope = begin_run(rng, shard_count(circuit, repetitions),
                                     /*observed=*/false);
    if (can_parallelize(circuit)) {
      const Dictionary dictionary = sample_dictionary(
          circuit, initial_state_, repetitions, scope, stats_);
      return {dictionary.begin(), dictionary.end()};
    }
    Counts counts;
    for (const Counts& shard :
         run_trajectories<Counts>(circuit, repetitions, scope, stats_)) {
      for (const auto& [bits, count] : shard) counts[bits] += count;
    }
    return counts;
  }

  /// Counters from the most recent run()/sample() call.
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

  /// Current tuning knobs.
  [[nodiscard]] const SimulatorOptions& options() const { return options_; }

  /// Replaces the tuning knobs.
  void set_options(SimulatorOptions options) { options_ = options; }

  /// True when both hooks are the library defaults, which is what lets
  /// channels take the exact joint branch update and monomial gates move
  /// the bitstring (custom hooks route channels through `apply` plus a
  /// standard candidate update and resample after every gate).
  [[nodiscard]] bool hooks_are_native() const { return hooks_are_native_; }

  /// Throws unless `circuit` is runnable (parameters resolved, and
  /// measured when `require_measurements`).
  void check_runnable(const Circuit& circuit, bool require_measurements) const {
    BGLS_REQUIRE(!circuit.is_parameterized(),
                 "circuit has unresolved parameters; resolve() it first");
    BGLS_REQUIRE(!require_measurements || circuit.has_measurements(),
                 "circuit has no measurements to sample; append measure()");
  }

 private:
  /// The Sec. 3.2.3 dictionary: unique bitstring → multiplicity, sorted
  /// by bitstring after each resample and at the end of a run.
  using Dictionary = std::vector<std::pair<Bitstring, std::uint64_t>>;

  /// How the bitstring follows one gate (see file comment): resampled
  /// from its candidates' probabilities, or moved. A move sends the
  /// gate-local basis index c of the support (qubits[0] the most
  /// significant bit) to image[c]; a diagonal gate's image is the
  /// identity, so it leaves the bitstring as it is.
  struct BitUpdate {
    bool moves = false;
    bool permutes = false;  // image is not the identity
    std::array<std::uint8_t, (1u << kMaxGateArity)> image{};

    /// Where a move sends `b`.
    [[nodiscard]] Bitstring moved(Bitstring b,
                                  std::span<const Qubit> qubits) const {
      if (!permutes) return b;
      std::size_t local = 0;
      for (const Qubit q : qubits) {
        local = (local << 1) | static_cast<std::size_t>(get_bit(b, q));
      }
      const std::size_t to = image[local];
      const std::size_t k = qubits.size();
      for (std::size_t j = 0; j < k; ++j) {
        const auto bit = static_cast<int>((to >> (k - 1 - j)) & 1u);
        b = with_bit(b, qubits[j], bit);
      }
      return b;
    }
  };

  /// The update that follows `op` on `state`: a move when the hooks are
  /// native, the state applies the gate exactly, and the gate's cached
  /// class is diagonal or permutation; a resample otherwise.
  [[nodiscard]] BitUpdate bit_update(const Operation& op,
                                     const State& state) const {
    const Gate& gate = op.gate();
    if (!hooks_are_native_ || !gate.is_unitary()) return {};
    if constexpr (requires { state.applies_exactly(op.qubits()); }) {
      if (!state.applies_exactly(op.qubits())) return {};
    }
    const std::shared_ptr<const kernels::CompiledMatrix> compiled =
        gate.compiled_unitary();
    const kernels::Classification& c = compiled->classification;
    BitUpdate update;
    switch (c.cls) {
      case kernels::GateClass::kDiagonal:
        update.moves = true;
        break;
      case kernels::GateClass::kPermutation:
        // new_amp[r] = factors[r] * old_amp[perm[r]]: |perm[r]⟩ → |r⟩.
        update.moves = true;
        update.permutes = true;
        for (std::size_t r = 0; r < c.perm.size(); ++r) {
          update.image[c.perm[r]] = static_cast<std::uint8_t>(r);
        }
        break;
      case kernels::GateClass::kControlled:
      case kernels::GateClass::kDense:
        break;
    }
    return update;
  }

  /// The widest group of diagonal gates the dictionary path defers when
  /// it runs `circuit` on `state` (see file comment). It is 0, and every
  /// gate goes where it stands, with custom hooks, on a state without a
  /// one-pass group apply, and on a circuit wider than the state, whose
  /// applies must fail where they stand.
  [[nodiscard]] int diagonal_group_qubits(const State& state,
                                          const Circuit& circuit) const {
    if constexpr (DiagonalGrouping<State>) {
      if (hooks_are_native_ && circuit.num_qubits() <= state.num_qubits()) {
        return state.diagonal_group_qubits();
      }
    }
    return 0;
  }

  /// Applies the deferred diagonal gates and empties `pending`: one gate
  /// through apply_op like any other, more in the state's one pass.
  void apply_pending(std::vector<const Operation*>& pending, State& state,
                     Rng& evolution) const {
    if (pending.size() == 1) {
      apply_op_(*pending.front(), state, evolution);
    } else if (pending.size() > 1) {
      if constexpr (DiagonalGrouping<State>) {
        state.apply_diagonal_group(pending);
      }
    }
    pending.clear();
  }

  /// The qubits of `qubits` as a mask (bit q for qubit q).
  [[nodiscard]] static Bitstring qubit_mask(std::span<const Qubit> qubits) {
    Bitstring mask = 0;
    for (const Qubit q : qubits) mask = with_bit(mask, q, 1);
    return mask;
  }

  /// run() with the dictionary path evolving the initial state itself
  /// (`consume_state`) or a copy of it.
  Result run_impl(const Circuit& circuit, std::uint64_t repetitions, Rng& rng,
                  bool consume_state) {
    check_runnable(circuit, /*require_measurements=*/true);
    const RunScope scope = begin_run(rng, shard_count(circuit, repetitions),
                                     /*observed=*/true);
    const bool dictionary = can_parallelize(circuit);
    Result result;
    if (dictionary) {
      result = consume_state
                   ? run_dictionary(circuit, std::move(initial_state_),
                                    repetitions, scope, stats_)
                   : run_dictionary(circuit, initial_state_, repetitions,
                                    scope, stats_);
    } else {
      declare_measurement_keys(circuit, result);
      for (const Result& shard :
           run_trajectories<Result>(circuit, repetitions, scope, stats_)) {
        result.append(shard);
      }
    }
    // The dictionary path completes every repetition at the final gate,
    // and a resumed run streamed its prefix before the interruption:
    // both owe only the final update.
    if (options_.progress.enabled() &&
        (dictionary || options_.resume != nullptr)) {
      options_.progress.sink(ProgressUpdate{repetitions, repetitions, true,
                                            key_histograms(result)});
    }
    return result;
  }

  /// A run's fixed inputs besides the circuit: its key, the pool its
  /// shards fan out on (null = the calling thread), and whether
  /// progress, checkpoints and resume apply (run() only; sample()
  /// leaves them off).
  struct RunScope {
    std::uint64_t key = 0;
    EngineContext* pool = nullptr;
    bool observed = false;
  };

  /// The shard count of a trajectory run: min(repetitions, kMaxShards),
  /// at least 1.
  [[nodiscard]] static std::uint64_t shard_count(std::uint64_t repetitions) {
    return std::clamp<std::uint64_t>(repetitions, 1, kMaxShards);
  }

  /// The shard count of a run of `circuit`: one on the dictionary path.
  [[nodiscard]] std::uint64_t shard_count(const Circuit& circuit,
                                          std::uint64_t repetitions) const {
    return can_parallelize(circuit) ? 1 : shard_count(repetitions);
  }

  /// Shard sizes of a run: shard_count near-equal contiguous pieces
  /// (the first repetitions % shards get one extra).
  [[nodiscard]] static std::vector<std::uint64_t> shard_sizes(
      std::uint64_t repetitions) {
    const std::uint64_t shards = shard_count(repetitions);
    std::vector<std::uint64_t> sizes(shards, repetitions / shards);
    for (std::uint64_t i = 0; i < repetitions % shards; ++i) ++sizes[i];
    return sizes;
  }

  /// Shared preamble of every run: the cancellation check, the run key
  /// (one draw from `rng`), fresh counters, and the pool, taken when
  /// more than one thread is configured and `jobs` (the run's parallel
  /// width) exceeds one. Shared pools live for the whole process, so
  /// the scope may hold a raw pointer to one.
  RunScope begin_run(Rng& rng, std::uint64_t jobs, bool observed) {
    options_.cancel_token.throw_if_stopped();
    engine_detail::count_engine_run();
    const int threads = ThreadPool::resolve_num_threads(options_.num_threads);
    stats_ = RunStats{};
    stats_.threads_used = static_cast<std::size_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(threads), std::max<std::uint64_t>(jobs, 1)));
    RunScope scope{rng(), nullptr, observed};
    if (stats_.threads_used > 1) {
      scope.pool = EngineContext::shared(threads).get();
    }
    return scope;
  }

  [[nodiscard]] bool can_parallelize(const Circuit& circuit) const {
    // Sec. 3.2.3: one shared state only works when the state evolution
    // is deterministic (no channels, no classical feed-forward) and
    // nothing acts after measurement.
    if (options_.disable_sample_parallelization || circuit.has_channels() ||
        !circuit.measurements_are_terminal()) {
      return false;
    }
    return circuit.count_operations([](const Operation& op) {
             return op.is_classically_controlled();
           }) == 0;
  }

  /// Extracts a key's packed value from a full bitstring: bit j of the
  /// result is b[qubits[j]].
  [[nodiscard]] static Bitstring pack_key_bits(Bitstring b,
                                               std::span<const Qubit> qubits) {
    Bitstring packed = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      packed = with_bit(packed, static_cast<int>(j), get_bit(b, qubits[j]));
    }
    return packed;
  }

  /// The trajectory path (Sec. 3.2.1): shard i runs its contiguous
  /// range of repetitions, repetition r as one evolution drawing from
  /// Rng(mix_key(key, r)). Out is Result (run(): records, progress,
  /// checkpoints, resume) or Counts (sample(): final bitstrings).
  /// Returns the shards' outputs in shard order and fills `stats`.
  template <typename Out>
  std::vector<Out> run_trajectories(const Circuit& circuit,
                                    std::uint64_t repetitions,
                                    const RunScope& scope,
                                    RunStats& stats) const {
    constexpr bool kRecords = std::is_same_v<Out, Result>;
    const std::vector<Operation> ops = circuit.all_operations();
    std::vector<BitUpdate> updates;
    updates.reserve(ops.size());
    for (const Operation& op : ops) {
      updates.push_back(bit_update(op, initial_state_));
    }
    const std::vector<std::uint64_t> sizes = shard_sizes(repetitions);
    const std::size_t shards = sizes.size();
    std::vector<std::uint64_t> first(shards, 0);
    for (std::size_t i = 1; i < shards; ++i) {
      first[i] = first[i - 1] + sizes[i - 1];
    }

    const RunCheckpoint* resume =
        scope.observed ? options_.resume.get() : nullptr;
    std::unique_ptr<ProgressCollector> progress;
    std::unique_ptr<CheckpointCollector> checkpoints;
    if (resume != nullptr) validate_resume(*resume, scope.key, sizes);
    if (scope.observed && options_.progress.enabled() && resume == nullptr) {
      progress = std::make_unique<ProgressCollector>(options_.progress, sizes);
    }
    if (scope.observed && options_.checkpoint.enabled()) {
      // A fresh run's base is its key and split with nothing done; the
      // first snapshot goes out once a shard has done some work.
      RunCheckpoint base;
      if (resume != nullptr) {
        base = *resume;
      } else {
        base.run_key = scope.key;
        base.total_repetitions = repetitions;
        base.shards.resize(shards);
        for (std::size_t i = 0; i < shards; ++i) {
          base.shards[i].total = sizes[i];
        }
      }
      checkpoints = std::make_unique<CheckpointCollector>(options_.checkpoint,
                                                          std::move(base));
    }
    const std::uint64_t progress_every = options_.progress.every;
    const std::uint64_t checkpoint_every = options_.checkpoint.every;

    std::vector<Out> outputs(shards);
    std::vector<RunCounters> shard_stats(shards);
    run_indexed(scope.pool, shards, [&](std::size_t i) {
      // The shard fills locals and stores them once at its end: adjacent
      // slots of `outputs` and `shard_stats` share cache lines, and
      // per-gate counter writes from different threads would contend.
      Out out;
      RunCounters local;
      const std::uint64_t size = sizes[i];
      std::uint64_t done = 0;
      std::map<std::string, Counts> cumulative;
      if constexpr (kRecords) {
        declare_measurement_keys(circuit, out);
        if (resume != nullptr) {
          done = resume->shards[i].completed;
          cumulative = resume->shards[i].histograms;
          restore_result_histograms(out, cumulative);
        }
      }
      if (done == size) {
        // Nothing to sample, but the canonical update sequence still
        // needs the shard's end (an empty run's final update).
        if (progress) progress->report(i, done, cumulative);
        outputs[i] = std::move(out);
        return;
      }
      options_.cancel_token.throw_if_stopped();
      const engine_detail::ShardTimer timer;
      // kRoot: a shard runs inline at 1 thread but on a pool thread
      // otherwise; pinning its parent to the trace root keeps the span
      // tree byte-stable across thread counts.
      const obs::TraceSpan span(options_.trace, "shard", i,
                                obs::TraceSpan::Nest::kRoot);
      while (done < size) {
        // Walk the union of the progress and checkpoint schedules.
        std::uint64_t next = size;
        if (progress) {
          next = std::min(next, ProgressCollector::next_checkpoint(
                                    first[i] + done, first[i] + size,
                                    progress_every) -
                                    first[i]);
        }
        if (checkpoints) {
          next = std::min(next, ProgressCollector::next_checkpoint(
                                    done, size, checkpoint_every));
        }
        for (; done < next; ++done) {
          // Deterministic mid-run abort hook for crash-safety tests
          // (util/fault.h); inert unless armed.
          fault::throw_if_fails("shard_run");
          Rng rng(mix_key(scope.key, first[i] + done));
          if constexpr (kRecords) {
            trajectory(ops, updates, rng, &out, local);
            if (progress || checkpoints) {
              for (const std::string& key : out.keys()) {
                ++cumulative[key][out.values(key).back()];
              }
            }
          } else {
            ++out[trajectory(ops, updates, rng, nullptr, local)];
          }
        }
        if (progress && ((first[i] + done) % progress_every == 0 ||
                         done == size)) {
          progress->report(i, done, cumulative);
        }
        if (checkpoints && (done % checkpoint_every == 0 || done == size)) {
          checkpoints->record(i, done, cumulative, local);
        }
      }
      outputs[i] = std::move(out);
      shard_stats[i] = local;
    });

    for (const RunCounters& shard : shard_stats) stats += shard;
    stats.per_shard = std::move(shard_stats);
    // This run's counters cover its own work; fold in the resumed
    // prefix so the totals match the uninterrupted run exactly.
    if (resume != nullptr) stats += resume->stats;
    return outputs;
  }

  /// run() on the dictionary path, evolving `state`: the dictionary's
  /// entries become records. Every repetition completes at the final
  /// gate, so the path takes no checkpoint and resumes none (see file
  /// comment).
  Result run_dictionary(const Circuit& circuit, State state,
                        std::uint64_t repetitions, const RunScope& scope,
                        RunStats& stats) const {
    BGLS_REQUIRE(options_.resume == nullptr,
                 "checkpoints resume only the per-trajectory path, and this "
                 "run takes the dictionary path; resume with the same "
                 "batching configuration");
    Result result;
    declare_measurement_keys(circuit, result);
    const Dictionary dictionary = sample_dictionary(
        circuit, std::move(state), repetitions, scope, stats);
    for (const Moment& moment : circuit.moments()) {
      for (const Operation& op : moment.operations()) {
        if (!op.gate().is_measurement()) continue;
        for (const auto& [bits, count] : dictionary) {
          result.add_records(op.gate().measurement_key(),
                             pack_key_bits(bits, op.qubits()), count);
        }
      }
    }
    return result;
  }

  /// The dictionary path (Sec. 3.2.3): evolves `state` and, after each
  /// gate, moves every entry or resamples the dictionary in order, each
  /// entry drawing from Rng(mix_key(mix_key(key, g), bits)). The run is
  /// one shard. Fills `stats`.
  Dictionary sample_dictionary(const Circuit& circuit, State state,
                               std::uint64_t repetitions,
                               const RunScope& scope, RunStats& stats) const {
    stats.used_sample_parallelization = true;
    stats.trajectories = 1;  // one shared evolution
    stats.max_dictionary_size = 1;

    // The evolution is deterministic on this path (no channels), but
    // custom apply hooks receive a keyed stream in case they draw.
    Rng evolution(scope.key);
    Dictionary dictionary;
    if (repetitions > 0) dictionary.emplace_back(Bitstring{0}, repetitions);
    Dictionary resampled;
    bool sorted = true;
    // Diagonal gates waiting for one pass, and their qubits. Gates still
    // pending at the end are never applied: nothing reads the state after.
    const int group_qubits = diagonal_group_qubits(state, circuit);
    std::vector<const Operation*> pending;
    Bitstring pending_qubits = 0;
    double evolve_seconds = 0.0;
    double resample_seconds = 0.0;

    // One running stopwatch: each lap is one clock read, which keeps
    // the timing cheap for small runs with many gates. The moments are
    // walked in place (a copy of the operation list would cost more
    // than a small run); g counts operations in circuit order.
    Stopwatch watch;
    std::uint64_t g = 0;
    for (const Moment& moment : circuit.moments()) {
      for (const Operation& op : moment.operations()) {
        const std::uint64_t position = g++;
        if (op.gate().is_measurement()) continue;
        // Cooperative stop at gate granularity.
        options_.cancel_token.throw_if_stopped();
        fault::throw_if_fails("shard_run");
        ++stats.state_applications;
        const BitUpdate update = bit_update(op, state);
        if (group_qubits > 0) {
          // Deferred diagonal gates (see file comment): the group goes
          // before a gate that does not commute with it or would widen
          // it past the state's limit.
          const Bitstring support = qubit_mask(op.qubits());
          const bool diagonal = update.moves && !update.permutes;
          if (diagonal ? std::popcount(pending_qubits | support) > group_qubits
                       : (pending_qubits & support) != 0) {
            apply_pending(pending, state, evolution);
            pending_qubits = 0;
          }
          if (diagonal) {
            pending.push_back(&op);
            pending_qubits |= support;
            ++stats.monomial_moves;
            evolve_seconds += watch.lap();
            continue;
          }
        }
        apply_op_(op, state, evolution);
        evolve_seconds += watch.lap();
        if (update.moves) {
          // A bijection: no two entries meet, so nothing folds. The
          // order is restored at the next resample's sort or at the end.
          if (update.permutes) {
            for (auto& entry : dictionary) {
              entry.first = update.moved(entry.first, op.qubits());
            }
            sorted = false;
          }
          ++stats.monomial_moves;
          resample_seconds += watch.lap();
          continue;
        }
        resampled.clear();
        stats.probability_evaluations +=
            resample_entries(state, op, mix_key(scope.key, position),
                             dictionary, resampled);
        resample_seconds += watch.lap();
        // Candidates of different entries may coincide: sort and fold
        // equal bitstrings. (The merge's time falls into the next
        // gate's evolve lap.)
        std::sort(
            resampled.begin(), resampled.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        dictionary.clear();
        for (const auto& entry : resampled) {
          if (!dictionary.empty() && dictionary.back().first == entry.first) {
            dictionary.back().second += entry.second;
          } else {
            dictionary.push_back(entry);
          }
        }
        sorted = true;
        stats.max_dictionary_size =
            std::max(stats.max_dictionary_size, dictionary.size());
      }
    }
    if (!sorted) std::sort(dictionary.begin(), dictionary.end());

    stats.evolve_ms = evolve_seconds * 1000.0;
    stats.per_shard.assign(
        1, RunCounters{.probability_evaluations = stats.probability_evaluations});
    // The one shard's resample time as an observation and a span, and
    // an "evolve" span for the shared evolution.
    if (stats.probability_evaluations > 0) {
      engine_detail::observe_shard(resample_seconds);
    }
    obs::Trace* trace = options_.trace;
    if (trace != nullptr && obs::enabled()) {
      trace->record(obs::SpanRecord{
          obs::Trace::span_id(trace->id(), "shard", 0), trace->root(),
          "shard", 0, resample_seconds});
      trace->record(obs::SpanRecord{
          obs::Trace::span_id(trace->id(), "evolve", 0), trace->root(),
          "evolve", 0, evolve_seconds});
    }
    return dictionary;
  }

  /// One Sec. 3.2.3 resampling step for dictionary entries against the
  /// evolved state: entry `bits` splits its multiplicity over its
  /// candidates with an exact multinomial draw from
  /// Rng(mix_key(gate_key, bits)) and appends the nonzero (candidate,
  /// count) pairs to `out`. Returns the probability evaluations.
  std::size_t resample_entries(const State& state, const Operation& op,
                               std::uint64_t gate_key,
                               const Dictionary& entries,
                               Dictionary& out) const {
    std::array<double, (1u << kMaxGateArity)> weights{};
    std::array<std::uint64_t, (1u << kMaxGateArity)> counts{};
    std::size_t evaluations = 0;
    for (const auto& [bits, multiplicity] : entries) {
      const CandidateList candidates = expand_candidates(bits, op.qubits());
      const auto n = static_cast<std::size_t>(candidates.count);
      for (std::size_t i = 0; i < n; ++i) {
        weights[i] = compute_probability_(state, candidates.values[i]);
      }
      evaluations += n;
      Rng rng(mix_key(gate_key, bits));
      rng.multinomial(multiplicity, {weights.data(), n}, {counts.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] > 0) out.emplace_back(candidates.values[i], counts[i]);
      }
    }
    return evaluations;
  }

  /// One candidate-resampling step: draws the new bitstring for a single
  /// trajectory.
  Bitstring update_bits(const State& state, Bitstring b, const Operation& op,
                        Rng& rng, RunCounters& stats) const {
    const CandidateList candidates = expand_candidates(b, op.qubits());
    std::array<double, (1u << kMaxGateArity)> weights{};
    for (int i = 0; i < candidates.count; ++i) {
      weights[static_cast<std::size_t>(i)] =
          compute_probability_(state, candidates.values[static_cast<std::size_t>(i)]);
    }
    stats.probability_evaluations +=
        static_cast<std::size_t>(candidates.count);
    const std::size_t chosen = rng.categorical(
        {weights.data(), static_cast<std::size_t>(candidates.count)});
    return candidates.values[chosen];
  }

  /// Exact channel handling: sample (Kraus branch, candidate) jointly —
  /// this is BGLS on the channel's unitary dilation with the environment
  /// bit discarded, so the hidden-variable invariant holds exactly. The
  /// weights |(K_k ψ)[c_i]|² are listed branch-major (k outer, candidate
  /// i inner); the drawn operator is applied and the state renormalized.
  template <KrausBranching S>
  Bitstring apply_channel_jointly(const Operation& op, S& state, Bitstring b,
                                  Rng& rng, RunCounters& stats) const {
    const auto& kraus = op.gate().channel().operators();
    const std::span<const Qubit> qubits = op.qubits();
    const CandidateList candidates = expand_candidates(b, qubits);
    const auto num_candidates = static_cast<std::size_t>(candidates.count);
    std::vector<double> weights;
    weights.reserve(kraus.size() * num_candidates);
    std::size_t chosen = 0;
    if (weights_from_amplitudes(state, kraus, qubits, candidates, weights)) {
      chosen = rng.categorical(weights);
      state.apply_matrix(kraus[chosen / num_candidates], qubits);
    } else {
      // Apply every operator to its own copy and read the weights off
      // the copies.
      std::vector<S> branches;
      branches.reserve(kraus.size());
      for (const Matrix& k : kraus) {
        S branch = state;
        branch.apply_matrix(k, qubits);
        for (std::size_t i = 0; i < num_candidates; ++i) {
          weights.push_back(compute_probability_(branch, candidates.values[i]));
        }
        branches.push_back(std::move(branch));
      }
      chosen = rng.categorical(weights);
      state = std::move(branches[chosen / num_candidates]);
    }
    state.renormalize();
    stats.probability_evaluations += weights.size();
    ++stats.state_applications;
    return candidates.values[chosen % num_candidates];
  }

  /// Fills `weights` (branch-major) from the candidates' amplitudes and
  /// returns true, or returns false and fills nothing when the state has
  /// no amplitude() or says applying a matrix on `qubits` would not be
  /// exact (an MPS whose bond cap can truncate a two-qubit operator: its
  /// weights must come from the truncated copies, so the drawn candidate
  /// stays one the truncated state supports).
  template <typename S>
  static bool weights_from_amplitudes(const S& state,
                                      const std::vector<Matrix>& kraus,
                                      std::span<const Qubit> qubits,
                                      const CandidateList& candidates,
                                      std::vector<double>& weights) {
    if constexpr (!AmplitudeReadable<S>) {
      return false;
    } else {
      if constexpr (requires { state.applies_exactly(qubits); }) {
        if (!state.applies_exactly(qubits)) return false;
      }
      // ψ's 2^k candidate amplitudes in gate-local order (qubits[0] is
      // the most significant gate bit; candidate i sets qubits[j] to
      // bit j of i), then each weight as one row of K_k times them.
      // Rows are summed in column order, the order of every kernel, so
      // on a statevector the weights equal the copies' to the bit.
      const auto num_candidates = static_cast<std::size_t>(candidates.count);
      std::array<Complex, (1u << kMaxGateArity)> local{};
      std::array<std::size_t, (1u << kMaxGateArity)> row{};
      for (std::size_t i = 0; i < num_candidates; ++i) {
        for (std::size_t j = 0; j < qubits.size(); ++j) {
          row[i] |= ((i >> j) & 1u) << (qubits.size() - 1 - j);
        }
        local[row[i]] = state.amplitude(candidates.values[i]);
      }
      for (const Matrix& k : kraus) {
        for (std::size_t i = 0; i < num_candidates; ++i) {
          Complex amplitude{0.0, 0.0};
          for (std::size_t col = 0; col < num_candidates; ++col) {
            amplitude += k(row[i], col) * local[col];
          }
          weights.push_back(std::norm(amplitude));
        }
      }
      return true;
    }
  }

  /// One full trajectory over `ops` (the circuit's flattened
  /// operations, with `updates[i]` the update that follows ops[i]);
  /// returns the final bitstring and (optionally) appends measurement
  /// records.
  Bitstring trajectory(const std::vector<Operation>& ops,
                       const std::vector<BitUpdate>& updates, Rng& rng,
                       Result* result, RunCounters& stats) const {
    State state = initial_state_;
    Bitstring b = 0;
    // Per-trajectory classical record, read by classically-controlled
    // operations (feed-forward).
    std::map<std::string, Bitstring> records;
    ++stats.trajectories;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Operation& op = ops[i];
      options_.cancel_token.throw_if_stopped();
      const Gate& gate = op.gate();
      if (gate.is_measurement()) {
        // b is a faithful sample of the instantaneous distribution, so
        // its restriction to the measured qubits *is* the outcome;
        // collapse the state to stay consistent with it.
        const Bitstring packed = pack_key_bits(b, op.qubits());
        records[gate.measurement_key()] = packed;
        if (result != nullptr) {
          result->add_record(gate.measurement_key(), packed);
        }
        project_state(state, op.qubits(), b);
        continue;
      }
      if (op.is_classically_controlled()) {
        const auto it = records.find(op.condition_key());
        BGLS_REQUIRE(it != records.end(), "operation ", op.to_string(),
                     " is conditioned on key '", op.condition_key(),
                     "' which has not been measured yet");
        if (it->second == 0) continue;  // condition false: skip the gate
      }
      if constexpr (KrausBranching<State>) {
        if (gate.is_channel() && hooks_are_native_) {
          b = apply_channel_jointly(op, state, b, rng, stats);
          continue;
        }
      }
      apply_op_(op, state, rng);
      ++stats.state_applications;
      if (updates[i].moves) {
        b = updates[i].moved(b, op.qubits());
        ++stats.monomial_moves;
        continue;
      }
      b = update_bits(state, b, op, rng, stats);
    }
    return b;
  }

  static void project_state(State& state, std::span<const Qubit> qubits,
                            Bitstring b) {
    if constexpr (requires(State s, std::span<const Qubit> qs, Bitstring bb) {
                    s.project(qs, bb);
                  }) {
      state.project(qubits, b);
    } else {
      detail::throw_error<UnsupportedOperationError>(
          "state type does not support projection; mid-circuit "
          "measurements need a project(qubits, bits) member");
    }
  }

  State initial_state_;
  SimulatorOptions options_;
  ApplyOpFn apply_op_;
  ProbabilityFn compute_probability_;
  bool hooks_are_native_ = true;
  RunStats stats_;
};

}  // namespace bgls
