// capes_benchmark: one named workload, run through the public
// core::Experiment API, with every metric printed as `name value unit`
// and then one JSON line (perfbench/run.py reads it).
//
//   capes_benchmark --workload=NAME --seed=N [--seconds=S] [--trace=FILE]
//                   [--scale=F]
//
// The loop is closed: a sampling tick starts only when the previous one
// returned, and simulated time is decoupled from wall time, so the load is
// a fixed tick count. --seed generates the load (every workload
// generator's stream and the fault schedule); the tuner and the simulated
// cluster keep their fixed preset seed, as a deployed CAPES would.
//
// A run builds and warms the experiment (the timed set-up), trains for the
// workload's training ticks, then alternates baseline and tuned phases of
// the workload's evaluation ticks until --seconds is used up (at least one
// pair), with one more timed set-up before each phase after the first
// pair. Tick rates are the 90th percentile of 25-tick block rates, so a
// burst of host noise does not move them; tick times are quantiles over
// ticks.
// Training plus the first pair is the §A.4 workflow; its simulated results
// form the deterministic block, and a second experiment built at the same
// seed must reproduce the first training ticks bit for bit.
//
// --trace=FILE runs the workflow once untraced and once traced (the
// blocks must match), then calls each layer's public functions on the
// traced experiment, and writes every span as Chrome trace-event JSON
// (open it in Perfetto). Spans come only from this file, around calls into
// the layers. --scale multiplies every tick count (floor 20), for smoke
// runs.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brain_service.hpp"
#include "core/experiment.hpp"
#include "core/remote_brain.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace capes;

namespace {

using Clock = std::chrono::steady_clock;
using core::RunPhase;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Timed calls per probed public function (times --scale, floor 20).
constexpr int kProbeCalls = 200;
/// Set-ups per run: set-up takes milliseconds, so one sample is noise.
constexpr std::size_t kMinSetups = 9;
/// Ticks per block of a tick rate, and the quantile of block rates
/// reported. Host interference only ever slows a block, so the faster
/// blocks measure the code rather than its neighbours; the 90th
/// percentile cut the spread across runs on a noisy host from 26-38% (the
/// median) to 15-24%.
constexpr std::size_t kBlockTicks = 25;
constexpr double kRateQuantile = 0.9;
/// Training ticks a second experiment at the same seed must reproduce
/// (enough for the first minibatch steps to run).
constexpr std::int64_t kCheckTicks = 60;

[[noreturn]] void die(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(1);
}

std::string format(const char* fmt, ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process's address space. Not ru_maxrss: that
/// keeps the high-water mark of the image exec replaced, so a child of a
/// larger parent (python) would report the parent's size.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::vector<Metric>;

void put(Metrics& m, std::string name, double value, const char* unit) {
  m.push_back({std::move(name), value, unit});
}

// ---- spans ------------------------------------------------------------------

/// A pre-reserved in-memory span buffer, written once at exit as Chrome
/// trace-event JSON. Spans past the reservation are counted, not stored,
/// so recording never allocates inside the measured loop.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// `tick` is the sampling tick the span belongs to (its parent "tick"
  /// span), `probe` the probe call's index; -1 when not applicable.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t tick, std::int64_t probe) {
    if (spans_.size() == spans_.capacity()) {
      ++overflow_;
      return;
    }
    spans_.push_back({name, start_ns, end_ns, tick, probe});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tick\":%lld,"
                   "\"probe\":%lld}}%s\n",
                   s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.tick),
                   static_cast<long long>(s.probe),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\"otherData\":{\"spans_dropped\":%llu}}\n",
                 static_cast<unsigned long long>(overflow_));
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t tick;
    std::int64_t probe;
  };
  std::vector<Span> spans_;
  std::uint64_t overflow_ = 0;
};

/// Wall-clock stamps taken through the public hooks only: the tick
/// listener, and (traced) an objective wrapper. A tick spans from the
/// previous on_tick (or the phase start) to its own on_tick; traced, it
/// splits at the earliest objective call — "observe" before it (fault
/// inject, simulator advance, agent collect/encode/publish, daemon
/// drain/decode), "decide" after it (reward, act, route/apply, train or
/// the tcp round trip).
class TickRecorder {
 public:
  explicit TickRecorder(Tracer* tracer) : tracer_(tracer) {}

  /// Reserve room for `ticks` more ticks, outside the measured loop.
  void reserve(std::size_t ticks) {
    gaps_ns_.reserve(gaps_ns_.size() + ticks);
    if (tracer_ != nullptr) {
      observe_ns_.reserve(observe_ns_.size() + ticks);
      decide_ns_.reserve(decide_ns_.size() + ticks);
    }
  }

  void begin_phase() { tick_start_ = now_ns(); }

  void on_tick(const core::TickEvent& event) {
    const std::int64_t end = now_ns();
    gaps_ns_.push_back(end - tick_start_);
    if (tracer_ != nullptr) {
      const std::int64_t split =
          first_objective_.exchange(kNone, std::memory_order_relaxed);
      observe_ns_.push_back(split - tick_start_);
      decide_ns_.push_back(end - split);
      tracer_->add("tick", tick_start_, end, event.tick, -1);
      tracer_->add("observe", tick_start_, split, event.tick, -1);
      tracer_->add("decide", split, end, event.tick, -1);
    }
    tick_start_ = end;
  }

  /// Called by the objective wrapper, possibly from pool workers (the
  /// pooled reward fan-out): keep the earliest call of the tick.
  void on_objective() {
    const std::int64_t t = now_ns();
    std::int64_t cur = first_objective_.load(std::memory_order_relaxed);
    while (t < cur && !first_objective_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  bool traced() const { return tracer_ != nullptr; }
  const std::vector<std::int64_t>& gaps_ns() const { return gaps_ns_; }
  const std::vector<std::int64_t>& observe_ns() const { return observe_ns_; }
  const std::vector<std::int64_t>& decide_ns() const { return decide_ns_; }

 private:
  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  Tracer* tracer_;
  std::int64_t tick_start_ = 0;
  std::atomic<std::int64_t> first_objective_{kNone};
  std::vector<std::int64_t> gaps_ns_;
  std::vector<std::int64_t> observe_ns_;
  std::vector<std::int64_t> decide_ns_;
};

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  /// Busy threads at most: pool workers + the caller, plus learner, service
  /// and endpoint I/O threads. The host has 4 cores.
  std::size_t threads;
  /// Lossless workloads must not drop a single control message.
  bool lossless;
  /// The brain sits behind a loopback tcp link to a BrainService thread.
  bool tcp;
  /// The flight recorder writes a capture file (deleted after the run).
  bool capture;
  std::int64_t train_ticks;
  std::int64_t eval_ticks;  ///< per baseline and per tuned phase
  /// Configure the builder; `load(spec, domain)` appends the domain's
  /// generator seed, derived from --seed, to a workload spec.
  std::function<void(core::ExperimentBuilder&,
                     const std::function<std::string(const char*, int)>& load,
                     std::uint64_t seed)>
      configure;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's Fig. 2 set-up: the brain dominates a training tick.
      {"paper-random", 1, true, false, false, 2400, 500,
       [](core::ExperimentBuilder& b, const auto& load, std::uint64_t) {
         b.workload(load("random:0.5", 0));
       }},
      // Eight domains, hot and light alternating: the sharded simulator
      // dominates every tuned tick. Three busy threads, not four: the
      // fourth bought ~10% speed, and leaving a core to the rest of the
      // host cut the spread of the tick rates over eight seeds from
      // 12-13% to 5-9%.
      {"scale-8-skewed", 3, true, false, false, 600, 500,
       [](core::ExperimentBuilder& b, const auto& load, std::uint64_t) {
         for (int d = 0; d < 8; ++d) {
           const std::string spec =
               load(d % 2 == 0 ? "random:0.0" : "fileserver:instances=2,files=2", d);
           if (d == 0) {
             b.workload(spec);
           } else {
             b.add_cluster(spec);
           }
         }
         b.worker_threads(2).sim_shards(0).shard_plan("rate");
       }},
      // Writes, an async learner, a lossy simulated network, faults and
      // capture: the same layers used the other way.
      {"lossy-async-writes", 4, false, false, true, 300, 500,
       [](core::ExperimentBuilder& b, const auto& load, std::uint64_t seed) {
         b.workload(load("seqwrite", 0))
             .add_cluster(load("random:0.0", 1))
             .add_cluster(load("seqwrite", 2))
             .add_cluster(load("random:0.0", 3))
             .learner("async")
             .worker_threads(2)
             .sim_shards(0)
             .transport("sim:latency_ticks=1,jitter=1,drop=0.02,seed=5")
             .faults(format("faults:ost_crash=0.002,restart_ticks=8,"
                            "straggler=0.01,slow_factor=4,straggler_ticks=12,"
                            "partition=0.005,partition_ticks=4,seed=%llu",
                            static_cast<unsigned long long>(mix(seed, 99))));
       }},
      // The paper's deployment split: every tick is a framed round trip.
      {"tcp-fileserver", 4, true, true, false, 1200, 500,
       [](core::ExperimentBuilder& b, const auto& load, std::uint64_t) {
         b.workload(load("fileserver", 0));
       }},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- the experiment rig -----------------------------------------------------

/// One accept -> serve session on a thread: capes_daemond's inner loop,
/// minus the process boundary.
class LoopbackService {
 public:
  LoopbackService() = default;
  ~LoopbackService() { join(); }
  LoopbackService(const LoopbackService&) = delete;
  LoopbackService& operator=(const LoopbackService&) = delete;

  void start() {
    std::string error;
    const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd < 0) die("tcp_listen: %s", error.c_str());
    port_ = net::local_port(listen_fd);
    thread_ = std::thread([listen_fd] {
      std::string err;
      const int conn = net::accept_connection(listen_fd, 10000, &err);
      net::close_socket(listen_fd);
      if (conn < 0) return;
      net::Endpoint endpoint(conn, net::EndpointOptions{});
      core::BrainService service;
      service.serve(endpoint);
      endpoint.close();
    });
  }

  std::uint16_t port() const { return port_; }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::uint16_t port_ = 0;
  std::thread thread_;
};

struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

struct RigOptions {
  std::uint64_t seed = 0;
  std::string scratch_dir = ".";
  Tracer* tracer = nullptr;  ///< traced: objective wrapper + spans
  bool in_process = false;   ///< build the tcp workload without tcp
};

/// A built, warmed experiment and what must outlive it. Members are
/// destroyed in reverse order: the experiment first (its Bye ends the
/// service session, its writer closes the capture file), then the
/// recorder its listeners point at, the capture file, the service thread.
struct Rig {
  LoopbackService service;
  RemoveOnExit capture;
  std::unique_ptr<TickRecorder> recorder;
  std::unique_ptr<core::Experiment> exp;
  double setup_s = 0.0;  ///< build() + ensure_warmed_up()

  Rig(const Workload& w, const RigOptions& o) {
    static int serial = 0;
    const auto start = Clock::now();
    auto builder = core::Experiment::builder().warmup_seconds(5.0);
    w.configure(
        builder,
        [&](const char* spec, int domain) {
          const char* sep = std::string(spec).find(':') == std::string::npos ? ":" : ",";
          return format("%s%sseed=%llu", spec, sep,
                        static_cast<unsigned long long>(mix(o.seed, domain)));
        },
        o.seed);
    if (w.tcp && !o.in_process) {
      service.start();
      builder.transport("tcp:host=127.0.0.1,port=" + std::to_string(service.port()));
    }
    if (w.capture) {
      capture.path = format("%s/capture-%d-%d.cap", o.scratch_dir.c_str(),
                            static_cast<int>(getpid()), serial++);
      builder.capture(capture.path);
    }
    recorder = std::make_unique<TickRecorder>(o.tracer);
    TickRecorder* rec = recorder.get();
    builder.on_tick([rec](const core::TickEvent& e) { rec->on_tick(e); });
    if (o.tracer != nullptr) {
      // The exact default reward, stamped on the way through.
      auto reward = core::throughput_objective(core::fast_preset().capes.reward_scale_mbs);
      builder.objective([rec, reward](const core::PerfSample& s) {
        rec->on_objective();
        return reward(s);
      });
    }
    std::string error;
    exp = builder.build(&error);
    if (!exp) die("%s: experiment set-up failed: %s", w.name, error.c_str());
    exp->ensure_warmed_up();
    setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  }
};

bus::ChannelStats bus_stats(core::CapesSystem& sys) {
  return sys.remote_brain() ? sys.brain_client()->stats()
                            : sys.interface_daemon().bus_stats();
}

std::uint64_t net_bytes(core::CapesSystem& sys) {
  const core::BrainClient* client = sys.brain_client();
  if (client == nullptr || client->endpoint() == nullptr) return 0;
  return client->endpoint()->bytes_sent() + client->endpoint()->bytes_received();
}

/// Fingerprint, train steps and simulated results so far — what the same
/// seed must reproduce exactly.
std::string det_head(core::Experiment& exp, std::uint64_t events) {
  core::CapesSystem& sys = exp.system();
  return format("fingerprint=%08x train_steps=%zu events=%llu",
                sys.training_fingerprint(), sys.total_train_steps(),
                static_cast<unsigned long long>(events));
}

std::string det_phase(const core::PhaseReport& r) {
  const core::RunResult& rr = r.result;
  const char* p = r.label.c_str();
  return format(
      " %s.mbs=%.17g %s.dropped=%llu %s.late=%llu %s.faults=%llu/%llu/%llu/%llu/%llu",
      p, r.throughput.mean, p, static_cast<unsigned long long>(rr.messages_dropped), p,
      static_cast<unsigned long long>(rr.messages_late), p,
      static_cast<unsigned long long>(rr.faults_injected),
      static_cast<unsigned long long>(rr.ost_crashes),
      static_cast<unsigned long long>(rr.stragglers),
      static_cast<unsigned long long>(rr.partitions),
      static_cast<unsigned long long>(rr.ticks_degraded));
}

// ---- one run of the workflow ------------------------------------------------------

/// One measured phase: which ticks of the recorder it covers, and the
/// wall and CPU time it took.
struct PhaseLog {
  RunPhase kind = RunPhase::kIdle;
  std::size_t first = 0;
  std::size_t ticks = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

struct Episode {
  std::unique_ptr<Rig> rig;
  std::vector<PhaseLog> phases;
  std::string check;  ///< the first kCheckTicks training ticks
  std::string det;    ///< training plus the first pair
  double gain_pct = 0.0;  ///< tuned over baseline, first pair (simulated)
  double rss_mb = 0.0;
  bool sane = true;
  std::uint64_t attempted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  std::size_t pairs = 0;
  Metrics layers;  ///< traced: per-layer metrics of the measured loop
};

PhaseLog run_phase(core::Experiment& exp, TickRecorder& rec, RunPhase kind,
                   std::int64_t ticks, core::PhaseReport* report) {
  PhaseLog log;
  log.kind = kind;
  log.first = rec.gaps_ns().size();
  log.ticks = static_cast<std::size_t>(ticks);
  rec.reserve(log.ticks);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  rec.begin_phase();
  switch (kind) {
    case RunPhase::kTraining: *report = exp.run_training(ticks); break;
    case RunPhase::kBaseline: *report = exp.run_baseline(ticks); break;
    default: *report = exp.run_tuned(ticks); break;
  }
  log.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  log.cpu_s = cpu_seconds() - cpu0;
  return log;
}

/// Train, then baseline/tuned pairs until `deadline` (at least one pair,
/// at most `max_pairs`). `between_phases`, if set, runs before every phase
/// after the first pair.
Episode run_episode(const Workload& w, const RigOptions& ro, double scale,
                    Clock::time_point deadline, std::size_t max_pairs,
                    const std::function<void()>& between_phases = {}) {
  const auto scaled = [scale](std::int64_t ticks) {
    return std::max<std::int64_t>(
        20, std::llround(static_cast<double>(ticks) * scale));
  };
  const std::int64_t train = std::max(scaled(w.train_ticks), kCheckTicks + 1);
  const std::int64_t eval = scaled(w.eval_ticks);

  Episode ep;
  ep.rig = std::make_unique<Rig>(w, ro);
  core::Experiment& exp = *ep.rig->exp;
  core::CapesSystem& sys = exp.system();
  TickRecorder& rec = *ep.rig->recorder;

  const bus::ChannelStats bus0 = bus_stats(sys);
  const std::uint64_t events0 = exp.simulator().executed_events();
  const std::uint64_t mon0 = sys.monitoring_bytes_sent();
  const std::uint64_t alloc0 = sys.hot_path_allocations();
  const std::uint64_t net0 = net_bytes(sys);

  core::PhaseReport report;
  ep.phases.push_back(run_phase(exp, rec, RunPhase::kTraining, kCheckTicks, &report));
  ep.check = det_head(exp, exp.simulator().executed_events() - events0) +
             det_phase(report);
  ep.phases.push_back(
      run_phase(exp, rec, RunPhase::kTraining, train - kCheckTicks, &report));
  if (sys.total_train_steps() == 0) ep.sane = false;
  double pair_s = 0.0;
  do {
    const auto t0 = Clock::now();
    core::PhaseReport baseline, tuned;
    const bool between = ep.pairs > 0 && between_phases;
    if (between) between_phases();
    ep.phases.push_back(run_phase(exp, rec, RunPhase::kBaseline, eval, &baseline));
    if (between) between_phases();
    ep.phases.push_back(run_phase(exp, rec, RunPhase::kTuned, eval, &tuned));
    if (!(baseline.throughput.mean > 0.0 && tuned.throughput.mean > 0.0)) ep.sane = false;
    if (++ep.pairs == 1) {
      ep.gain_pct = exp.report().tuned_gain_percent();
      ep.det = det_head(exp, exp.simulator().executed_events() - events0) +
               det_phase(report) + det_phase(baseline) + det_phase(tuned) +
               format(" tuned_gain_pct=%.17g", ep.gain_pct);
      // The gain's sign is not checked: at some seeds (103 on paper-random)
      // the trained policy does not beat the defaults. --compare guards it.
      if (!std::isfinite(ep.gain_pct)) ep.sane = false;
      ep.rss_mb = peak_rss_mb();
    }
    pair_s = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (ep.pairs < max_pairs &&
           Clock::now() + std::chrono::duration<double>(pair_s) <= deadline);

  // Close the capture writer so its counters are final (records after
  // this point count as drops, and nothing measured comes after it).
  capture::WireLogWriter* writer = sys.capture_writer();
  if (writer != nullptr) writer->close();

  const bus::ChannelStats bus1 = bus_stats(sys);
  ep.dropped = bus1.dropped - bus0.dropped;
  ep.attempted = (bus1.published - bus0.published) + ep.dropped;
  // A dropped message fails only where the workload promises no loss; on
  // the lossy workload drops are the simulated network's planned output.
  ep.failed = w.lossless ? ep.dropped : 0;
  if (ep.failed > 0) ep.sane = false;

  if (!rec.traced()) return ep;

  // ---- per-layer metrics of the measured loop (traced) ----
  double ticks = 0.0;
  for (const PhaseLog& p : ep.phases) ticks += static_cast<double>(p.ticks);
  const core::PhaseReport* baseline = exp.report().find(RunPhase::kBaseline);
  const core::PhaseReport* tuned = exp.report().find(RunPhase::kTuned);
  Metrics& m = ep.layers;
  put(m, "sim.shard_imbalance", tuned->result.shard_imbalance(), "ratio");
  put(m, "lustre.baseline_mbs", baseline->throughput.mean, "MB/s");
  put(m, "lustre.tuned_mbs", tuned->throughput.mean, "MB/s");
  std::uint64_t rejected = 0;
  for (std::size_t d = 0; d < exp.num_domains(); ++d) {
    lustre::Cluster* cluster = exp.cluster_at(d);
    for (std::size_t i = 0; cluster != nullptr && i < cluster->num_servers(); ++i) {
      rejected += cluster->server(i).requests_rejected();
    }
  }
  put(m, "lustre.requests_rejected", static_cast<double>(rejected), "count");
  put(m, "core.codec.bytes_per_node_tick",
      static_cast<double>(sys.monitoring_bytes_sent() - mon0) /
          (static_cast<double>(sys.total_nodes()) * ticks),
      "bytes");
  put(m, "core.allocs_per_tick",
      static_cast<double>(sys.hot_path_allocations() - alloc0) / ticks, "count");
  put(m, "bus.published_per_tick",
      static_cast<double>(bus1.published - bus0.published) / ticks, "count");
  put(m, "bus.dropped", static_cast<double>(ep.dropped), "count");
  put(m, "bus.late", static_cast<double>(bus1.late - bus0.late), "count");
  put(m, "capture.records_per_tick",
      writer ? static_cast<double>(writer->records_logged()) / ticks : 0.0, "count");
  put(m, "capture.bytes_per_tick",
      writer ? static_cast<double>(writer->bytes_written()) / ticks : 0.0, "bytes");
  put(m, "capture.dropped", writer ? static_cast<double>(writer->records_dropped()) : 0.0,
      "count");
  put(m, "net.bytes_per_tick", static_cast<double>(net_bytes(sys) - net0) / ticks,
      "bytes");
  const core::BrainClient* client = sys.brain_client();
  put(m, "net.send_dropped",
      client && client->endpoint() ? static_cast<double>(client->endpoint()->send_dropped())
                                   : 0.0,
      "count");
  return ep;
}

/// Per-tick values (ns) of every phase of `kind`, in milliseconds.
std::vector<double> tick_ms(const Episode& ep, const std::vector<std::int64_t>& ns,
                            RunPhase kind) {
  std::vector<double> ms;
  for (const PhaseLog& p : ep.phases) {
    if (p.kind != kind) continue;
    for (std::size_t i = p.first; i < p.first + p.ticks; ++i) {
      ms.push_back(static_cast<double>(ns[i]) * 1e-6);
    }
  }
  return ms;
}

/// The kRateQuantile tick rate over kBlockTicks-tick blocks of every phase
/// of `kind` (a phase's partial last block is left out).
double block_rate(const Episode& ep, RunPhase kind) {
  const auto& gaps = ep.rig->recorder->gaps_ns();
  std::vector<double> rates;
  for (const PhaseLog& p : ep.phases) {
    if (p.kind != kind) continue;
    for (std::size_t b = p.first; b + kBlockTicks <= p.first + p.ticks; b += kBlockTicks) {
      std::int64_t ns = 0;
      for (std::size_t i = b; i < b + kBlockTicks; ++i) ns += gaps[i];
      rates.push_back(static_cast<double>(kBlockTicks) * 1e9 / static_cast<double>(ns));
    }
  }
  return quantile(std::move(rates), kRateQuantile);
}

/// The end-to-end host metrics of one run (set-up is added by the caller).
Metrics host_metrics(const Episode& ep) {
  const auto& gaps = ep.rig->recorder->gaps_ns();
  const double train = block_rate(ep, RunPhase::kTraining);
  const double baseline = block_rate(ep, RunPhase::kBaseline);
  const double tuned = block_rate(ep, RunPhase::kTuned);
  const std::vector<double> train_ms = tick_ms(ep, gaps, RunPhase::kTraining);
  const std::vector<double> tuned_ms = tick_ms(ep, gaps, RunPhase::kTuned);
  // The §A.4 workflow (training, one baseline, one tuned phase) at the
  // measured phase rates; phases 0-1 are training, 2 the first baseline.
  const auto t = static_cast<double>(ep.phases[0].ticks + ep.phases[1].ticks);
  const auto e = static_cast<double>(ep.phases[2].ticks);
  Metrics m;
  put(m, "workflow_ticks_per_s", (t + 2 * e) / (t / train + e / baseline + e / tuned),
      "ticks/s");
  put(m, "train_ticks_per_s", train, "ticks/s");
  put(m, "baseline_ticks_per_s", baseline, "ticks/s");
  put(m, "tuned_ticks_per_s", tuned, "ticks/s");
  put(m, "train_tick_ms_p50", quantile(train_ms, 0.50), "ms");
  put(m, "train_tick_ms_p99", quantile(train_ms, 0.99), "ms");
  put(m, "tuned_tick_ms_p50", quantile(tuned_ms, 0.50), "ms");
  put(m, "tuned_tick_ms_p99", quantile(tuned_ms, 0.99), "ms");
  put(m, "peak_rss_mb", ep.rss_mb, "MB");
  return m;
}

/// Per-layer metrics of the traced loop: observe/decide split and CPU use.
void loop_metrics(const Episode& ep, Metrics& m) {
  const TickRecorder& rec = *ep.rig->recorder;
  for (const RunPhase kind : {RunPhase::kTraining, RunPhase::kTuned}) {
    const char* tag = kind == RunPhase::kTraining ? "train" : "tuned";
    put(m, format("loop.%s.observe_ms", tag), median(tick_ms(ep, rec.observe_ns(), kind)),
        "ms");
    put(m, format("loop.%s.decide_ms", tag), median(tick_ms(ep, rec.decide_ns(), kind)),
        "ms");
  }
  for (const RunPhase kind : {RunPhase::kTraining, RunPhase::kBaseline, RunPhase::kTuned}) {
    double cpu = 0.0, wall = 0.0;
    for (const PhaseLog& p : ep.phases) {
      if (p.kind != kind) continue;
      cpu += p.cpu_s;
      wall += p.wall_s;
    }
    put(m,
        format("proc.%s.cpu_per_wall",
               kind == RunPhase::kTraining ? "train" : core::phase_name(kind)),
        cpu / wall, "ratio");
  }
}

// ---- probes -------------------------------------------------------------------

/// Timed calls into the layers' public functions after the measured loop,
/// one span per call.
struct Prober {
  Tracer& tracer;
  int calls;  ///< per probed function

  /// Times `calls` calls of fn(i); returns nanoseconds.
  template <typename Fn>
  std::vector<double> time(const char* name, Fn&& fn) {
    std::vector<double> ns;
    ns.reserve(static_cast<std::size_t>(calls));
    for (int i = 0; i < calls; ++i) {
      const std::int64_t t0 = now_ns();
      fn(i);
      const std::int64_t t1 = now_ns();
      tracer.add(name, t0, t1, -1, i);
      ns.push_back(static_cast<double>(t1 - t0));
    }
    return ns;
  }

  /// Nanoseconds per item of a batch operation: each call runs fn over
  /// all `items` (one item is too short for the clock), and the median
  /// call is divided by the item count.
  template <typename Fn>
  double per_item(const char* name, std::size_t items, Fn&& fn) {
    if (items == 0) return 0.0;
    return median(time(name, std::forward<Fn>(fn))) / static_cast<double>(items);
  }
};

/// Simulator advance, one sampling tick at a time, on the workload's pool.
void probe_simulator(core::Experiment& exp, Prober& p, Metrics& m) {
  sim::Simulator& sim = exp.simulator();
  util::ThreadPool* pool = exp.system().worker_pool();
  const sim::TimeUs tick_us = sim::seconds(exp.preset().capes.sampling_tick_s);
  std::uint64_t events = 0;
  double waited = 0.0;
  double capacity = 0.0;
  const auto ns = p.time("probe.sim.run_for", [&](int) {
    events += sim.run_for(tick_us, pool);
    const auto& busy = sim.last_advance_busy_ns();
    if (busy.size() < 2) return;
    const double top = static_cast<double>(*std::max_element(busy.begin(), busy.end()));
    for (const std::uint64_t b : busy) waited += top - static_cast<double>(b);
    capacity += top * static_cast<double>(busy.size());
  });
  double total_ns = 0.0;
  for (const double v : ns) total_ns += v;
  put(m, "sim.advance_ms", median(ns) * 1e-6, "ms");
  put(m, "sim.events_per_tick", static_cast<double>(events) / p.calls, "count");
  put(m, "sim.ns_per_event",
      events == 0 ? 0.0 : total_ns / static_cast<double>(events), "ns");
  put(m, "sim.barrier_wait_frac", capacity > 0.0 ? waited / capacity : 0.0, "fraction");
}

/// The brain side of one in-process system: agents, daemon, codec, engine,
/// replay DB, Q-network. For each probed tick the simulator advances
/// (untimed), then every agent samples, the daemon drains, the engine acts.
void probe_brain(core::Experiment& exp, std::uint64_t seed, Prober& p, Metrics& m) {
  core::CapesSystem& sys = exp.system();
  sim::Simulator& sim = exp.simulator();
  util::ThreadPool* pool = sys.worker_pool();
  core::DrlEngine& engine = sys.engine();
  core::InterfaceDaemon& daemon = sys.interface_daemon();
  rl::ReplayDb& replay = sys.replay();
  rl::Dqn& dqn = engine.dqn();
  engine.drain_learner();

  std::vector<core::MonitoringAgent*> agents;
  for (std::size_t d = 0; d < sys.num_domains(); ++d) {
    for (const auto& agent : sys.domain(d).monitoring_agents()) {
      agents.push_back(agent.get());
    }
  }
  const sim::TimeUs tick_us = sim::seconds(exp.preset().capes.sampling_tick_s);
  const std::int64_t tick0 = sys.current_tick();
  std::vector<double> sample_ns, drain_ns, act_ns;
  for (int i = 0; i < p.calls; ++i) {
    const std::int64_t t = tick0 + i;
    sim.run_for(tick_us, pool);
    const std::int64_t t0 = now_ns();
    if (pool != nullptr) {
      pool->parallel_for(agents.size(), [&](std::size_t a) { agents[a]->sample(t); });
    } else {
      for (core::MonitoringAgent* agent : agents) agent->sample(t);
    }
    const std::int64_t t1 = now_ns();
    daemon.drain_status(t, pool);
    const std::int64_t t2 = now_ns();
    // As in the loop, the reward lands before the engine acts (a tick
    // whose status is still in flight exists in the replay DB through it).
    daemon.on_reward(t, sys.domain(0).last_reward());
    const std::int64_t t2b = now_ns();
    engine.compute_action(t, false, pool);
    const std::int64_t t3 = now_ns();
    p.tracer.add("probe.core.agents.sample", t0, t1, t, i);
    p.tracer.add("probe.core.daemon.drain_status", t1, t2, t, i);
    p.tracer.add("probe.core.engine.compute_action", t2b, t3, t, i);
    sample_ns.push_back(static_cast<double>(t1 - t0));
    drain_ns.push_back(static_cast<double>(t2 - t1));
    act_ns.push_back(static_cast<double>(t3 - t2b));
  }
  put(m, "core.agents.sample_us", median(sample_ns) * 1e-3, "us");
  put(m, "core.daemon.drain_status_us", median(drain_ns) * 1e-3, "us");
  put(m, "core.engine.act_us", median(act_ns) * 1e-3, "us");

  // Codec: node 0's real PI sequence from the replay DB, re-encoded and
  // decoded by fresh codec state on every call.
  const std::size_t pis = replay.options().pis_per_node;
  std::vector<std::vector<float>> seq;
  for (std::int64_t t = replay.max_tick();
       t >= replay.min_tick() && seq.size() < static_cast<std::size_t>(p.calls); --t) {
    if (auto v = replay.status_at(t, 0)) seq.push_back(std::move(*v));
  }
  std::reverse(seq.begin(), seq.end());
  std::vector<std::vector<std::uint8_t>> msgs(seq.size());
  {
    core::PiEncoder encoder(0, pis);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      encoder.encode_into(static_cast<std::int64_t>(i), seq[i].data(), pis, msgs[i]);
    }
  }
  std::vector<std::uint8_t> out;
  out.reserve(1024);
  put(m, "core.codec.encode_ns",
      p.per_item("probe.core.codec.encode", seq.size(), [&](int) {
        core::PiEncoder encoder(0, pis);
        for (std::size_t i = 0; i < seq.size(); ++i) {
          encoder.encode_into(static_cast<std::int64_t>(i), seq[i].data(), pis, out);
        }
      }),
      "ns");
  core::PiMessage decoded;
  decoded.pis.reserve(pis);
  put(m, "core.codec.decode_ns",
      p.per_item("probe.core.codec.decode", msgs.size(), [&](int) {
        core::PiDecoder decoder(pis);
        for (const auto& msg : msgs) decoder.decode_into(msg, decoded);
      }),
      "ns");

  // Frame parsing over status frames sized like this workload's.
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    net::encode_frame(1, static_cast<std::int64_t>(i), core::kStatusTopic, 0,
                      msgs[i].data(), msgs[i].size(), &stream);
  }
  net::Frame frame;
  put(m, "net.frame_parse_ns",
      p.per_item("probe.net.frame_parse", msgs.size(), [&](int) {
        net::FrameParser parser;
        parser.feed(stream.data(), stream.size());
        while (parser.next(&frame) == net::ParseResult::kOk) {
        }
      }),
      "ns");

  const auto train_ns = p.time("probe.core.engine.train_tick", [&](int) {
    engine.train_tick(pool);
    engine.sync_with_learner();
  });
  put(m, "core.engine.train_tick_ms", median(train_ns) * 1e-6, "ms");

  util::Rng rng(seed);
  rl::Minibatch batch;
  const std::size_t batch_size = engine.options().minibatch_size;
  const auto minibatch_ns = p.time("probe.rl.construct_minibatch", [&](int) {
    replay.construct_minibatch_into(batch, batch_size, rng, 64, pool);
  });
  const auto step_ns =
      p.time("probe.rl.train_step", [&](int) { dqn.train_step(batch, pool); });
  std::vector<float> observation(replay.observation_size());
  replay.build_observation(replay.max_tick(), observation.data());
  const auto q_ns =
      p.time("probe.rl.q_values", [&](int) { dqn.q_values(observation, pool); });
  put(m, "rl.minibatch_us", median(minibatch_ns) * 1e-3, "us");
  put(m, "rl.train_step_ms", median(step_ns) * 1e-6, "ms");
  put(m, "rl.q_values_us", median(q_ns) * 1e-3, "us");
  put(m, "rl.replay_mb", static_cast<double>(replay.memory_bytes()) / 1e6, "MB");

  // Flops counted from the layer sizes: one forward is 2 * sum(in * out)
  // per row; a training step runs the target forward on s', the online
  // forward on s' (Double DQN), the online forward on s, and a backward
  // costing two forwards.
  const nn::Mlp& online = dqn.online_network();
  double forward_flops = 0.0;
  const auto& sizes = online.layer_sizes();
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    forward_flops += 2.0 * static_cast<double>(sizes[i] * sizes[i + 1]);
  }
  const double forwards_per_step = dqn.options().use_double_dqn ? 5.0 : 4.0;
  put(m, "nn.params", static_cast<double>(online.parameter_count()), "count");
  put(m, "nn.train_gflops",
      forward_flops * forwards_per_step * static_cast<double>(batch.size()) /
          median(step_ns),
      "GFLOP/s");
  put(m, "nn.forward_gflops", forward_flops / median(q_ns), "GFLOP/s");
}

// ---- output -------------------------------------------------------------------

void print_metrics(const Metrics& m) {
  for (const Metric& x : m) std::printf("%-32s %.6g %s\n", x.name.c_str(), x.value, x.unit);
}

std::string json_metrics(const Metrics& m) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    s += format("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                m[i].name.c_str(), v, m[i].unit);
  }
  return s + "}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N [--seconds=S] [--trace=FILE] "
               "[--scale=F]\nworkloads:",
               argv0);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  double scale = 1.0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (util::parse_flag(argv[i], "--workload", &value)) {
      workload_name = value;
    } else if (util::parse_flag(argv[i], "--seed", &value)) {
      if (!util::parse_u64(value, &seed)) return usage(argv[0]);
      have_seed = true;
    } else if (util::parse_flag(argv[i], "--seconds", &value)) {
      if (!util::parse_double(value, &seconds) || seconds < 0.0) return usage(argv[0]);
    } else if (util::parse_flag(argv[i], "--scale", &value)) {
      if (!util::parse_double(value, &scale) || !(scale > 0.0)) return usage(argv[0]);
    } else if (util::parse_flag(argv[i], "--trace", &value)) {
      trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = find_workload(workload_name);
  if (w == nullptr || !have_seed) return usage(argv[0]);

  RigOptions ro;
  ro.seed = seed;
  // Scratch files (the capture log) go beside the binary, in the build
  // directory.
  ro.scratch_dir = std::filesystem::path(argv[0]).parent_path().string();
  if (ro.scratch_dir.empty()) ro.scratch_dir = ".";
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));

  bool correct = true;
  std::vector<double> setups;
  // Set-ups besides the episodes' own. The first also replays the opening
  // training ticks, which the same seed must reproduce bit for bit.
  std::string replayed;
  const auto extra_setup = [&] {
    Rig rig(*w, ro);
    setups.push_back(rig.setup_s);
    if (!replayed.empty()) return;
    const std::uint64_t events0 = rig.exp->simulator().executed_events();
    const core::PhaseReport report = rig.exp->run_training(kCheckTicks);
    replayed = det_head(*rig.exp, rig.exp->simulator().executed_events() - events0) +
               det_phase(report);
  };
  std::unique_ptr<Tracer> tracer;
  Metrics layers;
  // Set-up (mostly simulated warm-up) slows more than the loop when the
  // host is busy, so extra set-ups run between the later phases and
  // sample the host across the run, not in one burst at its end.
  Episode ep = run_episode(*w, ro, scale, deadline,
                           trace_path.empty() ? std::numeric_limits<std::size_t>::max() : 1,
                           extra_setup);
  setups.push_back(ep.rig->setup_s);
  Metrics e2e = host_metrics(ep);
  if (!trace_path.empty()) {
    tracer = std::make_unique<Tracer>(std::size_t{1} << 18);
    RigOptions traced_ro = ro;
    traced_ro.tracer = tracer.get();
    Episode traced = run_episode(*w, traced_ro, scale, deadline, 1);
    setups.push_back(traced.rig->setup_s);
    if (traced.det != ep.det) {
      std::fprintf(stderr, "tracing changed the results:\n  %s\n  %s\n", ep.det.c_str(),
                   traced.det.c_str());
      correct = false;
    }
    core::Experiment& exp = *traced.rig->exp;
    layers = std::move(traced.layers);
    loop_metrics(traced, layers);
    Prober prober{*tracer, static_cast<int>(std::max<long long>(
                               20, std::llround(kProbeCalls * scale)))};
    probe_simulator(exp, prober, layers);
    if (w->tcp) {
      // The brain lives in the service thread. An in-process twin with the
      // same workload and seed must train to the same results (loopback tcp
      // is bit-identical to in-process delivery); its brain is probed.
      RigOptions twin_ro = ro;
      twin_ro.in_process = true;
      Episode twin = run_episode(*w, twin_ro, scale, deadline, 1);
      correct = correct && twin.sane;
      if (twin.det != ep.det) {
        std::fprintf(stderr, "tcp and in-process results differ:\n  %s\n  %s\n",
                     ep.det.c_str(), twin.det.c_str());
        correct = false;
      }
      probe_brain(*twin.rig->exp, seed, prober, layers);
    } else {
      probe_brain(exp, seed, prober, layers);
    }
    const double untraced_rate = e2e.front().value;
    const double traced_rate = host_metrics(traced).front().value;
    put(layers, "trace.overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0, "%");
    correct = correct && traced.sane;
    if (!tracer->write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      correct = false;
    }
  }
  ep.rig.reset();

  while (setups.size() < kMinSetups || replayed.empty()) extra_setup();
  if (replayed != ep.check) {
    std::fprintf(stderr, "the same seed did not reproduce:\n  %s\n  %s\n", ep.check.c_str(),
                 replayed.c_str());
    correct = false;
  }
  e2e.insert(e2e.begin(), {"setup_s", median(setups), "s"});

  correct = correct && ep.sane;
  // Printed for information; they cannot be gated by a relative bound
  // (see perfbench/README.md).
  put(e2e, "tuned_gain_pct", ep.gain_pct, "pp");
  put(e2e, "msgs_failed_frac",
      ep.attempted == 0 ? 0.0
                        : static_cast<double>(ep.dropped) / static_cast<double>(ep.attempted),
      "fraction");

  std::printf(
      "workload %s seed %llu threads %zu nproc %u: %lld training ticks, then %zu "
      "pairs of %lld baseline + %lld tuned ticks\n",
      w->name, static_cast<unsigned long long>(seed), w->threads,
      std::thread::hardware_concurrency(),
      static_cast<long long>(ep.phases[0].ticks + ep.phases[1].ticks), ep.pairs,
      static_cast<long long>(ep.phases[2].ticks), static_cast<long long>(ep.phases[3].ticks));
  print_metrics(e2e);
  print_metrics(layers);
  std::printf("det %s\n", ep.det.c_str());
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%zu,\"nproc\":%u,"
      "\"pairs\":%zu,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"det\":\"%s\",\"metrics\":%s,\"layers\":%s}\n",
      w->name, static_cast<unsigned long long>(seed), w->threads,
      std::thread::hardware_concurrency(), ep.pairs, correct ? "true" : "false",
      static_cast<unsigned long long>(ep.attempted),
      static_cast<unsigned long long>(ep.failed), ep.det.c_str(),
      json_metrics(e2e).c_str(), json_metrics(layers).c_str());
  return correct ? 0 : 1;
}
