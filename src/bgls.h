/// \file bgls.h
/// Aggregate public header: include this to get the whole library (the
/// equivalent of `import bgls` in the Python package).
///
/// Namespaced API tour:
///  - bgls::Session / bgls::RunRequest / bgls::RunResult — the runtime
///    front door: pick a backend per request (or Backend kAuto for the
///    circuit analyzer), run/run_async/run_batch over type-erased
///    circuits, where run_async and run_batch go through run
///    (api/session.h); bgls::Backend / bgls::BackendRegistry /
///    bgls::BackendSelector for custom backends, whose one bulk entry
///    point is Backend::run, and routing (api/backend.h,
///    api/registry.h, api/selector.h);
///  - bgls::Circuit / bgls::Gate / free operation builders (h, cnot,
///    measure, ...) — circuit construction (circuit/*.h);
///  - bgls::Simulator<State> — the gate-by-gate sampler, one loop per
///    path whose trajectory shards fan out on a long-lived pool at
///    SimulatorOptions::num_threads; every draw is keyed to its
///    repetition or dictionary entry, so results never depend on the
///    thread count (core/simulator.h);
///  - bgls::EngineContext / bgls::ThreadPool — the shared pools behind
///    every run (engine/context.h); async runs go through
///    Session::run_async, many-circuit sweeps through
///    Session::run_batch;
///  - state backends: bgls::StateVectorState, bgls::DensityMatrixState,
///    bgls::CHState (+ act_on_near_clifford), bgls::MPSState;
///  - bgls::optimize_for_bgls — circuit fusion for the sampler;
///  - bgls::parse_qasm / bgls::to_qasm — OpenQASM 2.0 interop;
///  - bgls::Graph / bgls::solve_maxcut_qaoa — the QAOA application;
///  - bgls::obs::MetricsRegistry / bgls::obs::Trace — the telemetry
///    subsystem: process-wide counters/gauges/latency histograms over
///    every layer (kernels, engine, scheduler, daemon), per-job trace
///    spans with deterministic IDs, and Prometheus text exposition
///    (obs/metrics.h, obs/trace.h, obs/exposition.h; switched at run
///    time with obs::set_enabled);
///  - bgls::Rng / bgls::mix_key — seeded randomness for reproducible
///    sampling and the keyed seeds behind thread-count-free draws.

#pragma once

#include "api/adapters.h"
#include "api/backend.h"
#include "api/registry.h"
#include "api/run_types.h"
#include "api/selector.h"
#include "api/session.h"
#include "channels/channels.h"
#include "circuit/circuit.h"
#include "circuit/decompose.h"
#include "circuit/diagram.h"
#include "circuit/noise.h"
#include "circuit/random.h"
#include "core/baseline.h"
#include "core/observables.h"
#include "core/optimize.h"
#include "core/result.h"
#include "core/simulator.h"
#include "densitymatrix/state.h"
#include "engine/context.h"
#include "engine/thread_pool.h"
#include "mps/state.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qaoa/qaoa.h"
#include "qasm/qasm.h"
#include "stabilizer/ch_form.h"
#include "stabilizer/near_clifford.h"
#include "stabilizer/tableau.h"
#include "statevector/state.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timing.h"
