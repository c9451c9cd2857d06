/// \file library_workloads.cpp
/// rcs_sv20 and noisy_traj: one caller thread runs Session::run back to
/// back (a closed loop), with circuits generated from the run seed.
///
///  - rcs_sv20: 20-qubit random circuits (20 moments, density 0.8),
///    1000 repetitions per job at threads=1 on the statevector backend —
///    the dictionary-batched serial path, dominated by the kernels.
///  - noisy_traj: 10-qubit random circuits (12 moments) with
///    depolarize(0.01) after every moment, 300 trajectories per job at
///    threads=4 — the engine's per-trajectory shards.
///
/// Oracles: rcs_sv20 tests each job's mean of 2^n·p(x) over its samples
/// against the exact Σ 2^n·p²; noisy_traj pools every job's samples per
/// circuit and bounds their total-variation distance to the exact
/// density-matrix distribution. Both are described with their
/// false-failure rates in README.md.

#include <unistd.h>

#include <bit>
#include <cmath>
#include <map>

#include "api/session.h"
#include "channels/channels.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "obs/trace.h"
#include "qasm/qasm.h"
#include "statevector/kernels.h"
#include "statevector/state.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace bgls;

struct LibrarySpec {
  int qubits;
  int moments;
  std::size_t circuits;     // distinct circuits per run, cycled by job
  std::uint64_t reps;
  int threads;
  double depolarize;        // 0 = noiseless
  std::size_t traced_jobs;  // fixed job list of a --trace 1 run
  int replays;              // apply_op replays of one trajectory
};

LibrarySpec spec_for(const std::string& workload) {
  if (workload == "rcs_sv20") return {20, 20, 16, 1000, 1, 0.0, 16, 1};
  return {10, 12, 8, 300, 4, 0.01, 16, 20};
}

/// Circuits of one run; `ideal` is the noiseless, measurement-free form
/// used for QASM timing.
struct Inputs {
  std::vector<Circuit> circuits;
  std::vector<Circuit> ideal;
};

Inputs make_inputs(const LibrarySpec& spec, std::uint64_t seed) {
  Inputs in;
  Rng rng(mix(seed, 0xC1C));
  std::vector<Qubit> all(static_cast<std::size_t>(spec.qubits));
  for (int q = 0; q < spec.qubits; ++q) all[static_cast<std::size_t>(q)] = q;
  for (std::size_t i = 0; i < spec.circuits; ++i) {
    RandomCircuitOptions options;
    options.num_moments = spec.moments;
    options.op_density = 0.8;
    Circuit ideal = generate_random_circuit(spec.qubits, options, rng);
    Circuit circuit = spec.depolarize > 0.0
                          ? with_noise(ideal, depolarize(spec.depolarize))
                          : ideal;
    circuit.append(measure(all, "m"));
    in.circuits.push_back(std::move(circuit));
    in.ideal.push_back(std::move(ideal));
  }
  return in;
}

RunRequest make_request(const LibrarySpec& spec, const Inputs& in,
                        std::uint64_t seed, std::size_t job) {
  return RunRequest()
      .with_circuit(in.circuits[job % in.circuits.size()])
      .with_repetitions(spec.reps)
      .with_seed(mix(seed, 1000 + job))
      .with_backend(BackendId::kStateVector)
      .with_threads(spec.threads);
}

struct Job {
  std::size_t index;
  double seconds;
  RunResult result;
};

/// Amplitude bytes one apply reads and writes under the kernel a
/// classification dispatches to: the share of the 2^n amplitudes the
/// kernel touches, times 16 B, read once and written once.
double apply_bytes(const kernels::Classification& c, int qubits, int arity) {
  const double block = std::ldexp(1.0, arity);
  double touched = 1.0;
  switch (c.cls) {
    case kernels::GateClass::kDiagonal: {
      double work = 0;
      for (const Complex& phase : c.phases) work += phase != Complex{1, 0};
      touched = work / block;
      break;
    }
    case kernels::GateClass::kPermutation: {
      if (arity == 1) break;
      double work = 0;
      for (std::size_t r = 0; r < c.perm.size(); ++r) {
        work += c.perm[r] != r || c.factors[r] != Complex{1, 0};
      }
      touched = work / block;
      break;
    }
    case kernels::GateClass::kControlled:
      touched = std::ldexp(1.0, -std::popcount(c.control_positions));
      break;
    case kernels::GateClass::kDense:
      break;
  }
  return touched * std::ldexp(16.0 * 2.0, qubits);
}

double circuit_bytes(const Circuit& circuit) {
  double bytes = 0;
  for (const Operation& op : circuit.all_operations()) {
    if (!op.gate().is_unitary()) continue;
    bytes += apply_bytes(op.gate().compiled_unitary()->classification,
                         circuit.num_qubits(), op.gate().arity());
  }
  return bytes;
}

/// Both oracles below compute the exact distribution on the generic
/// dense apply path (kernels::ForceGenericScope), the reference the
/// library's own kernel tests compare against, so a bug in a specialized
/// kernel shows up as a mismatch instead of being shared by the oracle.

/// rcs_sv20 oracle. Under exact sampling 2^n·p(x) has mean Σ 2^n·p² and
/// variance 2^{2n}·Σp³ − (Σ 2^n·p²)²; a job fails when its sample mean
/// sits more than 6 standard errors away (normal approximation: false
/// failure rate 2e-9 per job).
void check_rcs(const std::vector<Job>& jobs, const Inputs& in, Outcome& out) {
  std::map<std::size_t, std::vector<double>> probabilities;
  for (const Job& job : jobs) {
    const std::size_t c = job.index % in.circuits.size();
    if (probabilities.count(c) == 0) {
      const kernels::ForceGenericScope reference(true);
      StateVectorState state(in.circuits[c].num_qubits());
      Rng unused(0);
      evolve(in.circuits[c], state, unused);
      probabilities[c] = state.probabilities();
    }
    const std::vector<double>& p = probabilities[c];
    const double dim = static_cast<double>(p.size());
    double sum_p2 = 0, sum_p3 = 0;
    for (const double x : p) {
      sum_p2 += x * x;
      sum_p3 += x * x * x;
    }
    const double expect = dim * sum_p2;
    const double variance = dim * dim * sum_p3 - expect * expect;
    const auto& values = job.result.measurements.values("m");
    double mean = 0;
    for (const Bitstring x : values) mean += dim * p[x];
    mean /= static_cast<double>(values.size());
    // Circuits that leave p flat on its support make 2^n·p(x) constant.
    const double tolerance =
        std::max(6.0 * std::sqrt(std::max(variance, 0.0) /
                                 static_cast<double>(values.size())),
                 1e-9 * expect);
    if (!(std::abs(mean - expect) <= tolerance)) {
      out.fail("rcs job " + std::to_string(job.index) + ": mean 2^n p(x) " +
               std::to_string(mean) + " vs " + std::to_string(expect));
    }
  }
}

/// Exact outcome distribution of a noisy circuit: the density matrix ρ
/// evolved as the 2n-qubit vector vec(ρ)[r | c << n] = ρ[r][c], where a
/// unitary U on qubits Q applies as U on Q and conj(U) on Q + n, and a
/// one-qubit channel as Σ_k K_k ⊗ conj(K_k) on (q, q + n).
std::vector<double> exact_probabilities(const Circuit& circuit) {
  const kernels::ForceGenericScope reference(true);
  const int n = circuit.num_qubits();
  std::vector<Complex> rho(std::size_t{1} << (2 * n));
  rho[0] = 1.0;
  const auto conj = [](Matrix m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = std::conj(m(r, c));
    }
    return m;
  };
  for (const Operation& op : circuit.all_operations()) {
    const Gate& gate = op.gate();
    if (gate.is_measurement()) continue;
    std::vector<int> rows(op.qubits().begin(), op.qubits().end());
    std::vector<int> cols = rows;
    for (int& q : cols) q += n;
    if (gate.is_channel()) {
      BGLS_REQUIRE(rows.size() == 1, "one-qubit channels only");
      Matrix super = Matrix::zero(4, 4);
      for (const Matrix& k : gate.channel().operators()) {
        const Matrix term = Matrix::kron(k, conj(k));
        for (std::size_t r = 0; r < 4; ++r) {
          for (std::size_t c = 0; c < 4; ++c) super(r, c) += term(r, c);
        }
      }
      const std::array<int, 2> pair = {rows[0], cols[0]};
      kernels::apply_matrix(rho, 2 * n, super, pair);
    } else {
      const Matrix u = gate.unitary();
      kernels::apply_matrix(rho, 2 * n, u, rows);
      kernels::apply_matrix(rho, 2 * n, conj(u), cols);
    }
  }
  std::vector<double> p(std::size_t{1} << n);
  for (std::size_t x = 0; x < p.size(); ++x) p[x] = rho[x | (x << n)].real();
  return p;
}

/// noisy_traj oracle. Pooling N samples of one circuit, the empirical
/// total-variation distance to the exact distribution p satisfies
/// E[TVD] <= ½ Σ sqrt(p(1-p)/N) and, one sample moving it by at most
/// 1/N, exceeds that by t = sqrt(ln(1/δ)/(2N)) with probability at most
/// δ = 1e-9 (McDiarmid). A circuit whose pooled TVD passes that bound
/// fails every job that sampled it.
void check_noisy(const std::vector<Job>& jobs, const Inputs& in,
                 Outcome& out) {
  std::map<std::size_t, std::map<Bitstring, double>> pooled;
  std::map<std::size_t, std::size_t> job_count;
  for (const Job& job : jobs) {
    const std::size_t c = job.index % in.circuits.size();
    ++job_count[c];
    for (const Bitstring x : job.result.measurements.values("m")) {
      pooled[c][x] += 1;
    }
  }
  for (const auto& [c, counts] : pooled) {
    const std::vector<double> p = exact_probabilities(in.circuits[c]);
    double n = 0;
    for (const auto& [x, count] : counts) n += count;
    double tvd = 0, expected = 0;
    for (std::size_t x = 0; x < p.size(); ++x) {
      const auto it = counts.find(x);
      const double observed = it == counts.end() ? 0.0 : it->second / n;
      tvd += 0.5 * std::abs(observed - p[x]);
      expected += 0.5 * std::sqrt(p[x] * (1 - p[x]) / n);
    }
    const double bound = expected + std::sqrt(std::log(1e9) / (2 * n));
    if (!(tvd <= bound)) {
      for (std::size_t k = 0; k < job_count[c]; ++k) {
        out.fail("noisy circuit " + std::to_string(c) + ": pooled TVD " +
                 std::to_string(tvd) + " > bound " + std::to_string(bound));
      }
    }
  }
}

/// Per-layer metrics from the traced job list (see README.md for each
/// definition).
struct LayerTally {
  KernelTotals kernels;
  std::vector<double> apply_ms, bytes_gb, gbps, sampler_ms, dispatch_ms,
      resolve_us, shard_ms, imbalance, idle;
  double state_applications = 0, probability_evaluations = 0,
         max_dictionary = 0, trajectories = 0, shards = 0;
  std::map<std::string, double> routed;

  void add_job(const RunRequest& request, const RunResult& result,
               double wall_s, const KernelTotals& delta,
               const obs::Trace& trace, double circuit_gb) {
    for (std::size_t i = 0; i < delta.calls.size(); ++i) {
      kernels.calls[i] += delta.calls[i];
    }
    const double job_apply_ms = delta.seconds * 1e3;
    apply_ms.push_back(job_apply_ms);
    if (circuit_gb > 0 && delta.seconds > 0) {
      bytes_gb.push_back(circuit_gb);
      gbps.push_back(circuit_gb / delta.seconds);
    }
    const RunStats& stats = result.stats;
    sampler_ms.push_back(stats.sample_ms - job_apply_ms);
    dispatch_ms.push_back(wall_s * 1e3 - stats.sample_ms - stats.optimize_ms);
    state_applications += static_cast<double>(stats.state_applications);
    probability_evaluations +=
        static_cast<double>(stats.probability_evaluations);
    max_dictionary = std::max(max_dictionary,
                              static_cast<double>(stats.max_dictionary_size));
    trajectories += static_cast<double>(stats.trajectories);
    routed[result.backend_name] += 1;

    std::vector<double> job_shards;
    for (const obs::SpanRecord& span : trace.spans()) {
      if (span.name == "shard") job_shards.push_back(span.seconds * 1e3);
    }
    if (!job_shards.empty()) {
      double busy = 0;
      for (const double ms : job_shards) busy += ms;
      const double mean = busy / static_cast<double>(job_shards.size());
      imbalance.push_back(max_of(job_shards) / mean);
      idle.push_back(1.0 - busy / (request.num_threads * stats.sample_ms));
      shards += static_cast<double>(job_shards.size());
      shard_ms.insert(shard_ms.end(), job_shards.begin(), job_shards.end());
    }
  }
};

/// Median µs per backend apply_op call, unitary and channel separately,
/// replaying the first circuit's trajectory `replays` times.
std::pair<double, double> apply_op_us(Session& session, const Circuit& circuit,
                                      const RunRequest& request, int replays,
                                      std::uint64_t seed) {
  const auto backend = session.registry().find(BackendId::kStateVector);
  std::vector<double> unitary, channel;
  for (int r = 0; r < replays; ++r) {
    AnyState state = backend->create_state(request, circuit.num_qubits());
    Rng rng(mix(seed, 7000 + static_cast<std::uint64_t>(r)));
    for (const Operation& op : circuit.all_operations()) {
      if (op.gate().is_measurement()) continue;
      const double start = now_s();
      backend->apply_op(op, state, rng);
      const double us = (now_s() - start) * 1e6;
      (op.gate().is_channel() ? channel : unitary).push_back(us);
    }
  }
  return {median(unitary), median(channel)};
}

double qasm_parse_us(const std::vector<Circuit>& ideal) {
  std::vector<double> us;
  for (const Circuit& circuit : ideal) {
    const std::string text = to_qasm(circuit);
    for (int r = 0; r < 5; ++r) {
      const double start = now_s();
      static_cast<void>(parse_qasm(text));
      us.push_back((now_s() - start) * 1e6);
    }
  }
  return median(us);
}

void report_layers(const LayerTally& t, Outcome& out) {
  for (std::size_t i = 0; i < kKernelClasses.size(); ++i) {
    out.add(std::string("statevector.apply_calls.") + kKernelClasses[i],
            t.kernels.calls[i], "count");
  }
  out.add("statevector.apply_ms", median(t.apply_ms), "ms");
  out.add("statevector.bytes_moved_gb", median(t.bytes_gb), "GB");
  out.add("statevector.achieved_gbps", median(t.gbps), "GB/s");
  out.add("core.state_applications", t.state_applications, "count");
  out.add("core.probability_evaluations", t.probability_evaluations, "count");
  out.add("core.max_dictionary_size", t.max_dictionary, "count");
  out.add("core.trajectories", t.trajectories, "count");
  out.add("core.sampler_ms", median(t.sampler_ms), "ms");
  out.add("engine.shards", t.shards, "count");
  out.add("engine.shard_ms_p50", median(t.shard_ms), "ms");
  out.add("engine.shard_ms_max", max_of(t.shard_ms), "ms");
  out.add("engine.shard_imbalance", median(t.imbalance), "ratio");
  out.add("engine.pool_idle_frac", median(t.idle), "ratio");
  out.add("api.resolve_us", median(t.resolve_us), "us");
  out.add("api.dispatch_ms", median(t.dispatch_ms), "ms");
  for (const char* backend : {"statevector", "stabilizer", "densitymatrix",
                              "mps"}) {
    const auto it = t.routed.find(backend);
    out.add(std::string("api.routed.") + backend,
            it == t.routed.end() ? 0.0 : it->second, "count");
  }
}

}  // namespace

Outcome run_library(const Options& options) {
  const LibrarySpec spec = spec_for(options.workload);
  const Inputs in = make_inputs(spec, options.seed);
  const bool rcs = options.workload == "rcs_sv20";
  Outcome out;

  // Set-up: build the session and run the cold first job, which never
  // counts as a latency sample.
  const double setup_start = now_s();
  Session session;
  std::vector<Job> jobs;
  jobs.push_back({0, 0.0, session.run(make_request(spec, in, options.seed, 0))});
  out.add("setup_s", now_s() - setup_start, "s");
  if (options.mode == "setup") {
    out.attempted = 1;
    return out;
  }

  const auto run_job = [&](std::size_t index, obs::Trace* trace) {
    RunRequest request = make_request(spec, in, options.seed, index);
    if (trace != nullptr) request.with_trace(trace);
    const double start = now_s();
    RunResult result = session.run(std::move(request));
    jobs.push_back({index, now_s() - start, std::move(result)});
    return jobs.size() - 1;
  };

  if (!options.trace) {
    const double start = now_s();
    std::vector<Completion> done;
    for (std::size_t index = 1; now_s() - start < options.seconds; ++index) {
      const Job& job = jobs[run_job(index, nullptr)];
      done.push_back({now_s(), job.seconds});
    }
    add_timed_metrics(done, start, options.seconds, out);
    out.add("peak_rss_mb", peak_rss_mib(getpid()), "MiB");
  } else {
    // The same fixed job list twice: untraced, then traced.
    std::vector<double> untraced, traced;
    for (std::size_t j = 1; j <= spec.traced_jobs; ++j) {
      untraced.push_back(jobs[run_job(j, nullptr)].seconds);
    }
    LayerTally tally;
    for (std::size_t j = 1; j <= spec.traced_jobs; ++j) {
      const RunRequest probe = make_request(spec, in, options.seed, j);
      const double resolve_start = now_s();
      const auto resolution = session.resolve_backend(probe.circuit, probe);
      tally.resolve_us.push_back((now_s() - resolve_start) * 1e6);
      if (resolution.backend == nullptr) out.fail("unresolved backend");
      obs::Trace trace(j);
      const KernelTotals before = kernel_totals(Session::metrics_snapshot());
      const Job& job = jobs[run_job(j, &trace)];
      KernelTotals delta = kernel_totals(Session::metrics_snapshot());
      delta -= before;
      traced.push_back(job.seconds);
      const double circuit_gb = rcs ? circuit_bytes(probe.circuit) / 1e9 : 0.0;
      tally.add_job(probe, job.result, job.seconds, delta, trace, circuit_gb);
    }
    report_layers(tally, out);
    const auto [unitary_us, channel_us] =
        apply_op_us(session, in.circuits[0], make_request(spec, in, options.seed, 0),
                    spec.replays, options.seed);
    out.add("statevector.apply_op_us.unitary", unitary_us, "us");
    out.add("statevector.apply_op_us.channel", channel_us, "us");
    out.add("qasm.parse_us", qasm_parse_us(in.ideal), "us");
    out.add("obs.trace_overhead_frac", median(traced) / median(untraced) - 1,
            "ratio");
    out.add("traced.jobs", static_cast<double>(spec.traced_jobs), "count");
  }

  out.attempted = jobs.size();
  if (rcs) {
    check_rcs(jobs, in, out);
  } else {
    check_noisy(jobs, in, out);
  }
  return out;
}

}  // namespace perfbench
