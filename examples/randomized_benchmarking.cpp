/// \file randomized_benchmarking.cpp
/// Randomized-benchmarking-style workload driver (ROADMAP "More
/// workloads"): random Clifford sequences of growing depth, each
/// followed by its exact inverse so the noiseless circuit is the
/// identity; a depolarizing channel after every layer makes the
/// survival probability P(0...0) decay with depth — the RB signature.
///
/// Two execution paths, both over the runtime API:
///  1. Session::run_batch — the whole depth sweep as one mixed-depth
///     batch (kAuto routes every circuit; the circuits fan out across
///     the pool, and the noise channels force per-trajectory sampling);
///  2. the service JobScheduler — the same circuits as queued jobs with
///     depth-dependent priorities and per-job streaming, i.e. the
///     heterogeneous-traffic shape bgls_serve multiplexes.
///
/// Circuit i of the batch runs under seed mix_key(7, i), so job i gets
/// that seed too, and the example exits 1 unless every job's histogram
/// equals the batch's.
///
///   $ ./randomized_benchmarking

#include <cstdint>
#include <iostream>
#include <vector>

#include "api/session.h"
#include "channels/channels.h"
#include "service/scheduler.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace bgls;

constexpr int kQubits = 2;
constexpr double kNoise = 0.02;  // depolarizing probability per qubit/layer

/// One random Clifford layer on 2 qubits and its exact inverse. The
/// generators are self-inverse except S (inverse Sdg), so the inverse
/// layer is the reversed gates with S ↔ S†.
struct Layer {
  std::vector<Operation> forward;
  std::vector<Operation> inverse;
};

Layer random_layer(Rng& rng) {
  Layer layer;
  switch (rng.uniform_int(6)) {
    case 0: layer.forward = {h(0), h(1)}; break;
    case 1: layer.forward = {s(0), z(1)}; break;
    case 2: layer.forward = {x(0), s(1)}; break;
    case 3: layer.forward = {cnot(0, 1)}; break;
    case 4: layer.forward = {cz(0, 1)}; break;
    default: layer.forward = {y(0), h(1)}; break;
  }
  for (auto it = layer.forward.rbegin(); it != layer.forward.rend(); ++it) {
    if (it->gate().kind() == GateKind::kS) {
      layer.inverse.push_back(sdg(it->qubits().front()));
    } else {
      layer.inverse.push_back(*it);
    }
  }
  return layer;
}

/// A depth-m RB circuit: m random layers (+ per-layer depolarizing
/// noise), the exact inverse sequence, a terminal measurement.
Circuit rb_circuit(int depth, Rng& rng) {
  Circuit circuit;
  std::vector<std::vector<Operation>> inverses;
  for (int m = 0; m < depth; ++m) {
    Layer layer = random_layer(rng);
    circuit.append(layer.forward);
    for (Qubit q = 0; q < kQubits; ++q) {
      circuit.append(Operation(Gate::Channel(depolarize(kNoise)), {q}));
    }
    inverses.push_back(std::move(layer.inverse));
  }
  for (auto it = inverses.rbegin(); it != inverses.rend(); ++it) {
    circuit.append(*it);
  }
  circuit.append(measure({0, 1}, "rb"));
  return circuit;
}

double survival(const Result& result) {
  const auto distribution = result.distribution("rb");
  const auto it = distribution.find(0);
  return it == distribution.end() ? 0.0 : it->second;
}

}  // namespace

int main() {
  using namespace bgls;

  const std::vector<int> depths = {1, 2, 4, 8, 16, 32};
  const std::uint64_t reps = 20000;

  Rng circuit_rng(2023);
  std::vector<Circuit> circuits;
  circuits.reserve(depths.size());
  for (const int depth : depths) {
    circuits.push_back(rb_circuit(depth, circuit_rng));
  }

  // --- Path 1: the whole sweep as one engine batch --------------------
  Session session;
  const std::vector<RunResult> batch = session.run_batch(
      circuits,
      RunRequest().with_repetitions(reps).with_seed(7).with_threads(0));

  ConsoleTable table({"depth", "survival P(00)", "backend"});
  for (std::size_t i = 0; i < depths.size(); ++i) {
    table.add_row({std::to_string(depths[i]),
                   ConsoleTable::num(survival(batch[i].measurements), 4),
                   batch[i].backend_name});
  }
  std::cout << "Randomized benchmarking via Session::run_batch ("
            << reps << " trajectories per depth, depolarizing p=" << kNoise
            << " per qubit/layer):\n\n";
  table.print(std::cout);
  std::cout << "\nSurvival decays with depth — the RB signature. The exact\n"
               "inverse sequence means every deviation from P(00)=1 is\n"
               "injected noise, not coherent error.\n\n";

  // --- Path 2: the same sweep as scheduled service jobs ----------------
  // Deep circuits get *lower* priority, so the scheduler drains the
  // cheap shallow jobs first — heterogeneous-traffic shaping a service
  // does; progress streams per job.
  service::SchedulerOptions scheduler_options;
  scheduler_options.max_concurrent_jobs = 2;
  service::JobScheduler scheduler(scheduler_options);

  std::vector<std::uint64_t> jobs;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    jobs.push_back(scheduler.submit(RunRequest()
                                        .with_circuit(circuits[i])
                                        .with_repetitions(reps)
                                        .with_seed(mix_key(7, i))
                                        .with_priority(-depths[i])
                                        .with_progress(reps / 4, nullptr)));
  }
  std::cout << "Same sweep through the service JobScheduler (2 concurrent\n"
               "jobs, shallow depths prioritized):\n\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::JobInfo info = scheduler.wait(jobs[i]);
    if (info.state != service::JobState::kDone) {
      std::cerr << "job " << jobs[i] << " ended "
                << service::job_state_name(info.state) << ": " << info.error
                << "\n";
      return 1;
    }
    std::cout << "  depth " << depths[i] << ": started #" << info.start_order
              << ", " << info.progress_updates << " progress updates, P(00)="
              << ConsoleTable::num(survival(info.result->measurements), 4)
              << "\n";
    if (info.result->measurements.histogram("rb") !=
        batch[i].measurements.histogram("rb")) {
      std::cerr << "job " << jobs[i] << " (depth " << depths[i]
                << ") differs from batch circuit " << i << "\n";
      return 1;
    }
  }
  std::cout << "\nEvery job's histogram equals its batch circuit's.\n";
  const service::SchedulerStats stats = scheduler.stats();
  std::cout << "\nscheduler: " << stats.completed << " jobs completed, "
            << stats.failed + stats.cancelled + stats.timed_out
            << " aborted\n";
  return 0;
}
