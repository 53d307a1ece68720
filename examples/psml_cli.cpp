// psml_cli — command-line front end for the framework: run any model /
// dataset / mode combination with every optimization toggle exposed,
// optionally dumping a chrome://tracing timeline of the simulated device
// and a checkpoint of the trained model.
//
//   psml_cli --model=mlp --dataset=mnist --mode=parsecureml
//            --samples=256 --batch=128 --epochs=4 --lr=0.05
//            [--no-pipeline --no-compression --no-gpu --no-adaptive
//             --no-cpu-parallel --no-eq8]
//            [--infer] [--trace=run.json] [--save=model.bin] [--seed=N]
//
// Run with --help for the full list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "ml/checkpoint.hpp"
#include "parsecureml/framework.hpp"
#include "sgpu/trace_export.hpp"

namespace api = psml::parsecureml;
using psml::data::DatasetKind;
using psml::ml::ModelKind;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool has(const std::string& k) const { return kv.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : it->second;
  }
  std::size_t get_num(const std::string& k, std::size_t dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt
                          : static_cast<std::size_t>(
                                std::strtoull(it->second.c_str(), nullptr, 10));
  }
  double get_double(const std::string& k, double dflt) const {
    auto it = kv.find(k);
    return it == kv.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
};

void usage() {
  std::puts(
      "psml_cli — ParSecureML-Repro experiment runner\n"
      "\n"
      "  --model=mlp|cnn|rnn|linear|logistic|svm     (default mlp)\n"
      "  --dataset=mnist|vggface2|nist|cifar10|synthetic (default mnist)\n"
      "  --mode=parsecureml|secureml|plain-cpu|plain-gpu (default parsecureml)\n"
      "  --samples=N --batch=N --epochs=N --lr=F --seed=N --rnn-steps=N\n"
      "  --infer            run secure inference instead of training\n"
      "  --no-evaluate      skip the post-run accuracy evaluation\n"
      "optimization toggles (switch mode to custom):\n"
      "  --no-gpu --no-pipeline --no-compression --no-cpu-parallel\n"
      "  --no-adaptive --no-eq8\n"
      "  --compression-threshold=F  (default 0.75)\n"
      "outputs:\n"
      "  --trace=FILE.json  chrome://tracing timeline of the device\n"
      "  --save=FILE.bin    checkpoint of the trained (reconstructed) model\n");
}

// Every flag name main() reads; anything else is a typo or a removed flag,
// and running the default mode in its place would hide that.
const std::set<std::string> kKnownFlags = {
    "help", "model", "dataset", "mode", "samples", "batch", "epochs", "lr",
    "seed", "rnn-steps", "infer", "no-evaluate", "no-gpu", "no-pipeline",
    "no-compression", "no-cpu-parallel", "no-adaptive", "no-eq8",
    "compression-threshold", "trace", "save"};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    // Fresh strings at each step, no in-place erase/substr-self-assign:
    // GCC 12's -Wrestrict misfires on those patterns and this file must
    // build under -Werror.
    const char* raw = argv[i];
    if (raw[0] != '-' || raw[1] != '-') {
      std::fprintf(stderr, "unrecognized argument: %s (flags start with --)\n",
                   raw);
      std::exit(2);
    }
    const std::string a(raw + 2);
    const auto eq = a.find('=');
    const std::string name = a.substr(0, eq);
    if (kKnownFlags.count(name) == 0) {
      std::fprintf(stderr, "unknown flag: --%s\n\n", name.c_str());
      usage();
      std::exit(2);
    }
    if (eq == std::string::npos) {
      args.kv.emplace(name, "1");
    } else {
      args.kv.insert_or_assign(name, a.substr(eq + 1));
    }
  }
  return args;
}

ModelKind parse_model(const std::string& s) {
  if (s == "cnn") return ModelKind::kCnn;
  if (s == "rnn") return ModelKind::kRnn;
  if (s == "linear") return ModelKind::kLinear;
  if (s == "logistic") return ModelKind::kLogistic;
  if (s == "svm") return ModelKind::kSvm;
  if (s == "mlp") return ModelKind::kMlp;
  std::fprintf(stderr, "unknown model: %s\n", s.c_str());
  std::exit(2);
}

DatasetKind parse_dataset(const std::string& s) {
  if (s == "mnist") return DatasetKind::kMnist;
  if (s == "vggface2") return DatasetKind::kVggFace2;
  if (s == "nist") return DatasetKind::kNist;
  if (s == "cifar10") return DatasetKind::kCifar10;
  if (s == "synthetic") return DatasetKind::kSynthetic;
  std::fprintf(stderr, "unknown dataset: %s\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.has("help")) {
    usage();
    return 0;
  }

  api::RunConfig cfg;
  cfg.model = parse_model(args.get("model", "mlp"));
  cfg.dataset = parse_dataset(args.get("dataset", "mnist"));
  cfg.samples = args.get_num("samples", 128);
  cfg.batch = args.get_num("batch", 64);
  cfg.epochs = args.get_num("epochs", 2);
  cfg.lr = static_cast<float>(args.get_double("lr", 0.05));
  cfg.seed = args.get_num("seed", 20260705);
  cfg.rnn_steps = args.get_num("rnn-steps", 4);
  cfg.evaluate = !args.has("no-evaluate");
  cfg.checkpoint_path = args.get("save", "");
  if (!cfg.checkpoint_path.empty()) cfg.evaluate = true;

  const std::string mode = args.get("mode", "parsecureml");
  if (mode == "secureml") {
    cfg.mode = api::Mode::kSecureML;
  } else if (mode == "plain-cpu") {
    cfg.mode = api::Mode::kPlainCpu;
  } else if (mode == "plain-gpu") {
    cfg.mode = api::Mode::kPlainGpu;
  } else {
    cfg.mode = api::Mode::kParSecureML;
  }

  // Any optimization toggle moves the run into custom mode.
  const char* toggles[] = {"no-gpu",          "no-pipeline",
                           "no-compression",  "no-cpu-parallel",
                           "no-adaptive",     "no-eq8",
                           "compression-threshold"};
  bool custom = false;
  for (const char* t : toggles) custom = custom || args.has(t);
  if (custom) {
    cfg.custom_opts = psml::mpc::PartyOptions::parsecureml();
    if (args.has("no-gpu")) {
      cfg.custom_opts.use_gpu = false;
      cfg.custom_opts.adaptive = false;
    }
    if (args.has("no-pipeline")) cfg.custom_opts.use_pipeline = false;
    if (args.has("no-compression")) cfg.custom_opts.use_compression = false;
    if (args.has("no-cpu-parallel")) cfg.custom_opts.cpu_parallel = false;
    if (args.has("no-adaptive")) cfg.custom_opts.adaptive = false;
    if (args.has("no-eq8")) cfg.custom_opts.fuse_eq8 = false;
    cfg.custom_opts.compression_threshold =
        args.get_double("compression-threshold", 0.75);
    cfg.mode = api::Mode::kCustom;
  }

  if (cfg.model == ModelKind::kRnn &&
      cfg.dataset != DatasetKind::kSynthetic) {
    std::fprintf(stderr, "note: RNN runs on the SYNTHETIC dataset only; "
                         "switching dataset.\n");
    cfg.dataset = DatasetKind::kSynthetic;
  }

  psml::sgpu::Device::global().trace().clear();

  std::printf("psml_cli: %s on %s, mode %s, %zu samples, batch %zu, %zu "
              "epochs, lr %.3g\n",
              psml::ml::to_string(cfg.model).c_str(),
              psml::data::to_string(cfg.dataset).c_str(),
              api::to_string(cfg.mode).c_str(), cfg.samples, cfg.batch,
              cfg.epochs, cfg.lr);

  const bool infer = args.has("infer");
  const api::RunResult r =
      infer ? api::run_inference(cfg) : api::run_training(cfg);

  std::printf("\n%-24s %.4f s\n", "offline generate", r.offline_generate_sec);
  std::printf("%-24s %.4f s\n", "offline transmit", r.offline_transmit_sec);
  std::printf("%-24s %.4f s\n", "online", r.online_sec);
  std::printf("%-24s %.4f s\n", "total", r.total_sec);
  for (const auto& [phase, sec] : r.online_phases) {
    std::printf("  %-22s %.4f s (both servers)\n", phase.c_str(), sec);
  }
  std::printf("%-24s %.2f MiB\n", "server<->server",
              static_cast<double>(r.server_to_server_bytes) / (1 << 20));
  std::printf("%-24s %.2f MiB\n", "offline material",
              static_cast<double>(r.offline_bytes) / (1 << 20));
  if (r.compression.messages > 0) {
    std::printf("%-24s %llu/%llu messages, %.1f%% bytes saved\n",
                "compression",
                static_cast<unsigned long long>(
                    r.compression.compressed_messages),
                static_cast<unsigned long long>(r.compression.messages),
                r.compression.savings() * 100.0);
  }
  if (cfg.evaluate) {
    std::printf("%-24s %.3f\n", infer ? "accuracy (inference)" : "accuracy",
                r.accuracy);
  }

  if (args.has("trace")) {
    const std::string path = args.get("trace", "trace.json");
    psml::sgpu::write_chrome_trace(path, psml::sgpu::Device::global().trace());
    std::printf("device timeline written to %s (open in chrome://tracing)\n",
                path.c_str());
  }
  if (!cfg.checkpoint_path.empty() && !infer) {
    std::printf("trained model checkpoint written to %s\n",
                cfg.checkpoint_path.c_str());
  }
  return 0;
}
