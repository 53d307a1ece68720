// psml_perfbench: closed-loop load generator over the public job API.
//
//   psml_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                  [--rebuild 0|1] [--process I]
//
// One client, one job in flight: each parsecureml::run_training /
// run_inference call starts after the previous one returned. Set-up
// (singletons, adaptive-dispatch calibration, factory prefill, one discarded
// warm-up job) is timed from process start. Timed jobs then run for S
// seconds; every job's accuracy is checked against a plaintext kPlainCpu run
// of the same config and seed, computed outside the job timings. With
// --rebuild 1 the process then rebuilds the last job with a timer around
// each call into a library module (traced_job.cpp), checks that the rebuild
// moved exactly the bytes the real job moved and, for inference, that its
// secure outputs match the plaintext forward pass row by row.
// --trace 1 implies --rebuild 1 and adds the per-layer rows and the
// kSecureML and kPlainCpu reference rows.
//
// --process I numbers the processes of one benchmark run; it only changes
// which request seeds a request stream draws. Prints one JSON object of raw
// measurements as its last stdout line; perfbench/run.py pools the processes
// of a run and turns them into the metrics named in BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "mpc/triplet_factory.hpp"
#include "parsecureml/framework.hpp"
#include "profile/adaptive.hpp"
#include "sgpu/device.hpp"
#include "tensor/gemm.hpp"
#include "traced_job.hpp"

namespace {

using namespace psml;
using parsecureml::Mode;
using parsecureml::RunConfig;
using parsecureml::RunResult;

// Correctness: secure accuracy may differ from the plaintext reference by at
// most kMaxAccuracyGap, compared over at least kCheckSamples evaluated
// samples. A job evaluating fewer (a 64-sample request) is pooled with the
// jobs after it until the unit is large enough: float shares flip the odd
// near-tie argmax, and on 64 samples one flip is already 0.016. The rebuilt
// inference job's secure outputs may differ from the plaintext forward pass
// of the same weights by at most kMaxLogitError of the largest plaintext
// output. Float shares keep that error near 0.02; a wrong secure result is
// off by the output scale itself. The share of rows whose argmax differs is
// reported, not judged: on untrained weights many rows are near-ties.
constexpr double kMaxAccuracyGap = 0.02;
constexpr std::size_t kCheckSamples = 1024;
constexpr double kMaxLogitError = 0.1;

struct Workload {
  std::string name;
  RunConfig cfg;  // seed is filled in per job
  bool training = false;
  bool fresh_seed_per_job = false;  // request stream: every job new inputs
};

// BENCHMARK.json lists train-logit-b16 and serve-mlp only. train-mlp and
// infer-cnn stay here so their failure can be reproduced by hand: in a
// process whose AdaptiveDispatch calibration sends the Eq. 8 GEMMs to the
// device, the fp16 tensor-core path (GEMMs of at least 2^24 flops) rounds
// the masked float shares, and the outputs fail the accuracy check
// (train-mlp) or the output check (infer-cnn). Which path a process gets
// depends on host load during calibration.
std::optional<Workload> find_workload(const std::string& name) {
  Workload w{name, RunConfig{}};
  RunConfig& c = w.cfg;
  if (name == "train-mlp") {
    c.model = ml::ModelKind::kMlp;
    c.dataset = data::DatasetKind::kMnist;
    c.samples = 1024;
    c.batch = 128;
    c.epochs = 4;
    c.lr = 0.05f;
    w.training = true;
  } else if (name == "infer-cnn") {
    c.model = ml::ModelKind::kCnn;
    c.dataset = data::DatasetKind::kCifar10;
    c.samples = 256;
    c.batch = 64;
    c.epochs = 1;
  } else if (name == "train-logit-b16") {
    c.model = ml::ModelKind::kLogistic;
    c.dataset = data::DatasetKind::kSynthetic;
    c.samples = 2048;
    c.batch = 16;
    c.epochs = 2;
    w.training = true;
  } else if (name == "serve-mlp") {
    c.model = ml::ModelKind::kMlp;
    c.dataset = data::DatasetKind::kMnist;
    c.samples = 64;
    c.batch = 64;
    c.epochs = 1;
    c.use_triplet_factory = true;
    w.fresh_seed_per_job = true;
  } else {
    return std::nullopt;
  }
  c.mode = Mode::kParSecureML;
  c.evaluate = true;
  return w;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Job j's seed: the run seed for fixed-input workloads, a fresh derived
// seed per job for the request stream, distinct for each process of a run.
// Job 0 is the warm-up.
std::uint64_t job_seed(const Workload& w, std::uint64_t seed,
                       std::uint64_t process, std::size_t j) {
  if (!w.fresh_seed_per_job) return seed;
  return splitmix64(splitmix64(seed) ^ (process << 40) ^ j);
}

RunResult run_job(const Workload& w, const RunConfig& cfg) {
  return w.training ? parsecureml::run_training(cfg)
                    : parsecureml::run_inference(cfg);
}

double reference_accuracy(const Workload& w, RunConfig cfg) {
  cfg.mode = Mode::kPlainCpu;
  cfg.use_triplet_factory = false;
  return run_job(w, cfg).accuracy;
}

std::size_t samples_processed(const RunConfig& cfg) {
  const std::size_t batch = std::min(cfg.batch, cfg.samples);
  return std::max<std::size_t>(1, cfg.samples / batch) * batch * cfg.epochs;
}

// Per-job peak resident memory: the kernel's high-water mark (VmHWM) is
// reset before each job and read after it. Returns false when the reset is
// refused, in which case VmHWM is the process-wide peak.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// CPU time used by every thread of this process so far.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Machine-speed probe: best-of-3 packed GEMM throughput, single thread and
// on the global thread pool.
std::pair<double, double> gemm_probe() {
  auto best = [](std::size_t n, bool parallel) {
    MatrixF a(n, n, 0.5f), b(n, n, 0.25f), c(n, n, 0.0f);
    double best_s = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      if (parallel) {
        tensor::gemm_parallel(1.0f, a, tensor::Trans::kNo, b,
                              tensor::Trans::kNo, 0.0f, c);
      } else {
        tensor::gemm_blocked(1.0f, a, tensor::Trans::kNo, b,
                             tensor::Trans::kNo, 0.0f, c);
      }
      best_s = std::min(best_s, t.seconds());
    }
    return 2.0 * n * n * n / best_s * 1e-9;
  };
  return {best(512, false), best(1024, true)};
}

// Share of the plan's matmul shapes that this process's calibrated
// dispatcher sends to the simulated device. The calibration is timed once
// per process, so this differs between processes on a busy host.
double device_dispatch_share(const std::vector<mpc::TripletSpec>& plan) {
  const auto& dispatch = profile::AdaptiveDispatch::global();
  double matmuls = 0.0, on_device = 0.0;
  for (const auto& s : plan) {
    if (s.kind != mpc::TripletKind::kMatMul) continue;
    matmuls += 1.0;
    // secure_matmul decides with doubled k: the fused Eq. 8 form costs two
    // GEMMs of the triplet's shape.
    if (dispatch.decide(s.m, s.n, 2 * s.k).use_gpu) on_device += 1.0;
  }
  return matmuls > 0.0 ? on_device / matmuls : 0.0;
}

// Minimal JSON object writer for the raw result line.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += (ch == '\n' ? ' ' : ch);
    }
    return raw(key, q + "\"");
  }
  Json& array(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& object(const std::string& key, const Json& inner) {
    return raw(key, inner.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool rebuild = false;
  std::uint64_t process = 0;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "psml_perfbench: %s\nusage: psml_perfbench --workload NAME "
               "--seed N --seconds S [--trace 0|1] [--rebuild 0|1] "
               "[--process I]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--rebuild") {
      a.rebuild = value() == "1";
    } else if (k == "--process") {
      a.process = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  a.rebuild = a.rebuild || a.trace;
  return a;
}

// Results of the timed jobs that returned.
struct JobLog {
  std::vector<double> wall_s, cpu_s, online_s, offline_s, overhead_s,
      peak_rss_mib;
  double samples = 0.0, wire_bytes = 0.0, offline_bytes = 0.0;
  std::size_t attempted = 0, failed = 0;
  double max_gap = 0.0;
};

// Consecutive returned jobs whose accuracies are compared as one unit. The
// unit's gap sums each job's own correct-count difference, so a job that
// gains k correct predictions cannot cancel one that loses k.
class AccuracyCheck {
 public:
  void add(std::size_t evaluated, double accuracy, double reference) {
    samples_ += evaluated;
    count_gap_ +=
        std::fabs(accuracy - reference) * static_cast<double>(evaluated);
    ++jobs_;
  }
  bool unit_complete() const { return samples_ >= kCheckSamples; }
  // Closes the unit; its jobs count as failed when the gap is too large.
  void close(JobLog& log) {
    if (jobs_ == 0) return;
    const double gap = count_gap_ / static_cast<double>(samples_);
    log.max_gap = std::max(log.max_gap, gap);
    if (!(gap <= kMaxAccuracyGap)) {
      log.failed += jobs_;
      std::fprintf(stderr, "%zu job(s): accuracy gap %.4f to plaintext\n",
                   jobs_, gap);
    }
    *this = AccuracyCheck{};
  }

 private:
  std::size_t samples_ = 0, jobs_ = 0;
  double count_gap_ = 0.0;
};

int run(const Args& args, const Timer& since_start) {
  const auto found = find_workload(args.workload);
  if (!found) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *found;
  auto job_cfg = [&](std::size_t j) {
    RunConfig c = w.cfg;
    c.seed = job_seed(w, args.seed, args.process, j);
    return c;
  };

  // ---- set-up: timed from process start to the first timed job ----
  (void)sgpu::Device::global();
  Timer t_cal;
  (void)profile::AdaptiveDispatch::global();
  const double calibrate_s = t_cal.seconds();
  const RunConfig c0 = job_cfg(0);
  const auto mc = parsecureml::model_config_for(
      c0, data::dataset_geometry(c0.dataset));
  const ml::SecurePair pair = ml::build_secure_pair(mc);
  const std::size_t batch = std::min(c0.batch, c0.samples);
  const std::vector<mpc::TripletSpec> plan =
      ml::epoch_plan(pair.m0, c0.samples / batch, batch,
                     ml::loss_for(c0.model), mc.output_dim(), w.training);
  mpc::TripletFactory* factory = nullptr;
  if (w.cfg.use_triplet_factory) {
    // Warm the pools with one request's plan, as a serving host would.
    factory = &mpc::TripletFactory::global();
    factory->reserve(plan);
    factory->wait_ready();
  }
  (void)run_job(w, job_cfg(0));  // warm-up, discarded
  const double setup_s = since_start.seconds();

  const auto [gemm1, gemmN] = gemm_probe();
  const double device_share = device_dispatch_share(plan);

  // ---- timed closed loop ----
  std::optional<double> fixed_ref;
  if (!w.fresh_seed_per_job) fixed_ref = reference_accuracy(w, job_cfg(1));
  const auto f_before = factory ? factory->metrics()
                                : mpc::TripletFactory::Metrics{};
  JobLog log;
  AccuracyCheck check;
  RunConfig last_cfg;
  RunResult last_result;
  // Reference runs count against the budget too, so a request stream
  // checked job by job stays within --seconds of wall time.
  Timer loop;
  for (std::size_t j = 1; loop.seconds() < args.seconds || log.attempted < 3;
       ++j) {
    const RunConfig cfg = job_cfg(j);
    ++log.attempted;
    if (!reset_peak_rss() && log.attempted == 1) {
      std::fprintf(stderr, "peak RSS reset refused; reporting process peak\n");
    }
    RunResult r;
    const double cpu_before = process_cpu_s();
    Timer t;
    try {
      r = run_job(w, cfg);
    } catch (const std::exception& e) {
      ++log.failed;
      std::fprintf(stderr, "job %zu failed: %s\n", j, e.what());
      continue;
    }
    const double wall = t.seconds();
    log.cpu_s.push_back(process_cpu_s() - cpu_before);
    log.peak_rss_mib.push_back(peak_rss_mib());
    const double ref = fixed_ref ? *fixed_ref : reference_accuracy(w, cfg);
    check.add(cfg.samples, r.accuracy, ref);
    if (check.unit_complete()) check.close(log);
    const double offline = r.offline_generate_sec + r.offline_transmit_sec;
    log.wall_s.push_back(wall);
    log.online_s.push_back(r.online_sec);
    log.offline_s.push_back(offline);
    log.overhead_s.push_back(wall - offline - r.online_sec);
    const double n = static_cast<double>(samples_processed(cfg));
    log.samples += n;
    log.wire_bytes += static_cast<double>(r.server_to_server_bytes);
    log.offline_bytes += static_cast<double>(r.offline_bytes);
    last_cfg = cfg;
    last_result = r;
  }
  check.close(log);

  Json out;
  out.str("workload", w.name)
      .num("setup_s", setup_s)
      .num("attempted", static_cast<double>(log.attempted))
      .num("failed", static_cast<double>(log.failed))
      .num("max_accuracy_gap", log.max_gap)
      .num("samples", log.samples)
      .num("wire_bytes", log.wire_bytes)
      .num("offline_bytes", log.offline_bytes)
      .array("wall_s", log.wall_s)
      .array("cpu_s", log.cpu_s)
      .array("online_s", log.online_s)
      .array("offline_s", log.offline_s)
      .array("overhead_s", log.overhead_s)
      .array("peak_rss_mib", log.peak_rss_mib)
      .num("calib.gemm1_gflops", gemm1)
      .num("calib.gemmN_gflops", gemmN)
      .num("dispatch_device_share", device_share);

  std::optional<perfbench::TracedResult> traced;
  if (args.rebuild && !log.wall_s.empty()) {
    // The traced rebuild of the last timed job, on the same config and seed.
    traced = perfbench::run_traced(last_cfg, w.training);
    const perfbench::TracedResult& tr = *traced;
    const RunResult& a = last_result;
    const RunResult& b = tr.run;
    std::string mismatch;
    auto expect = [&](const char* what, std::uint64_t want, std::uint64_t got) {
      if (want != got) {
        mismatch += std::string(what) + " " + std::to_string(want) + " vs " +
                    std::to_string(got) + "; ";
      }
    };
    expect("server_to_server_bytes", a.server_to_server_bytes,
           b.server_to_server_bytes);
    expect("compressed.messages", a.compression.messages,
           b.compression.messages);
    expect("compressed.compressed_messages", a.compression.compressed_messages,
           b.compression.compressed_messages);
    expect("compressed.sent_bytes", a.compression.sent_bytes,
           b.compression.sent_bytes);
    expect("offline_bytes", a.offline_bytes, b.offline_bytes);
    const bool outputs_ok = w.training || tr.logit_error <= kMaxLogitError;
    if (!outputs_ok) {
      std::fprintf(stderr, "rebuilt job: outputs off plaintext by %.4f\n",
                   tr.logit_error);
    }
    out.str("trace_mismatch", mismatch)
        .num("row_mismatch_share", tr.row_mismatch_share)
        .num("logit_error", tr.logit_error)
        .num("output_check_failed", outputs_ok ? 0.0 : 1.0);
  }
  if (args.trace && !log.wall_s.empty()) {
    const perfbench::TracedResult& tr = *traced;
    Json layers;
    for (const auto& [k, v] : tr.layers) layers.num(k, v);
    std::vector<double> walls = log.wall_s;
    std::sort(walls.begin(), walls.end());
    const double median_wall = walls[walls.size() / 2];
    layers.num("trace_overhead", tr.wall_s / median_wall);
    std::vector<double> overhead = log.overhead_s;
    std::sort(overhead.begin(), overhead.end());
    layers.num("parsecureml.job_overhead_s", overhead[overhead.size() / 2]);
    layers.num("profile.calibrate_s", calibrate_s);
    const auto f_after = factory ? factory->metrics()
                                 : mpc::TripletFactory::Metrics{};
    layers.num("mpc.factory_starvations",
               static_cast<double>(f_after.starvation_events -
                                   f_before.starvation_events));
    layers.num("mpc.factory_refills",
               static_cast<double>(f_after.refills_completed -
                                   f_before.refills_completed));
    layers.num("mpc.factory_refill_s",
               f_after.refill_sec_total - f_before.refill_sec_total);

    // Reference rows: the same config in the paper's baseline modes.
    RunConfig ref_cfg = last_cfg;
    ref_cfg.evaluate = false;
    ref_cfg.mode = Mode::kSecureML;
    layers.num("ref.secureml.online_s", run_job(w, ref_cfg).online_sec);
    ref_cfg.mode = Mode::kPlainCpu;
    ref_cfg.use_triplet_factory = false;
    layers.num("ref.plain_cpu.online_s", run_job(w, ref_cfg).online_sec);

    out.object("layers", layers);
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Timer since_start;
  const Args args = parse_args(argc, argv);
  try {
    return run(args, since_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psml_perfbench: %s\n", e.what());
    return 1;
  }
}
