// perfbench_harness: drives the trainer and its layers through their public
// entry points for perfbench/run.py. Every invocation is one child process,
// so a watchdog can kill it and its peak RSS belongs to one run alone. It
// prints exactly one JSON object on stdout; run.py owns the arithmetic.
//
// Usage:
//   perfbench_harness train  steps=S [setup_reps=N] key=value...
//       N run_distributed(1 step) calls, then one run_distributed(S steps)
//       call, tracing off. Prints the wall times, the S-step run's losses
//       and wire counts, tokens per step and the process's peak RSS (with
//       N=0 that is the S-step run's alone).
//   perfbench_harness oracle steps=S key=value...
//       run_oracle for S steps; prints the per-step losses.
//   perfbench_harness trace  steps=S out=DIR key=value...
//       Tracing on plus perf_profile: a 1-step and an S-step run; the S-step
//       run's Chrome trace and metrics snapshot go to DIR/trace.json and
//       DIR/metrics.json, its step profiles to stdout.
//   perfbench_harness probe  key=value...
//       Times single public calls (tensor, nn, data, codec) on inputs shaped
//       like one step of the configured workload.
//
// Every run has kWorkers ranks and uses Adam. The key=value pairs describe
// the rest of the TrainConfig (see apply_key below). Bad arguments print a
// message to stderr and exit with code 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "common/rng.h"
#include "data/batch.h"
#include "data/corpus.h"
#include "data/loader.h"
#include "embrace/strategy.h"
#include "nn/heads.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "tensor/sparse_rows.h"
#include "tensor/tensor.h"

using namespace embrace;
using namespace embrace::core;

namespace {

using Clock = std::chrono::steady_clock;

// Ranks per run: one process, a train thread plus a comm thread per rank.
constexpr int kWorkers = 2;
// Timed rounds per probe, after one warm-up round.
constexpr int kProbeRounds = 15;

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(2);
}

struct Args {
  std::string mode;
  TrainConfig cfg;
  int setup_reps = 1;
  std::string out_dir;
};

double to_double(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') usage_error("bad number for " + key + ": " + v);
  return d;
}

int64_t to_int(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long long i = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage_error("bad integer for " + key + ": " + v);
  return i;
}

StrategyKind parse_strategy(const std::string& v) {
  if (v == "embrace") return StrategyKind::kEmbRace;
  if (v == "allgather") return StrategyKind::kHorovodAllGather;
  usage_error("unknown strategy " + v);
}

void apply_key(Args& a, const std::string& key, const std::string& v) {
  TrainConfig& c = a.cfg;
  if (key == "strategy") c.strategy = parse_strategy(v);
  else if (key == "setup_reps") a.setup_reps = static_cast<int>(to_int(key, v));
  else if (key == "out") a.out_dir = v;
  else if (key == "steps") c.steps = static_cast<int>(to_int(key, v));
  else if (key == "seed") c.seed = static_cast<uint64_t>(to_int(key, v));
  else if (key == "vocab") c.vocab = to_int(key, v);
  else if (key == "dim") c.dim = to_int(key, v);
  else if (key == "hidden") c.hidden = to_int(key, v);
  else if (key == "classes") c.classes = to_int(key, v);
  else if (key == "tables") c.num_tables = static_cast<int>(to_int(key, v));
  else if (key == "batch") c.batch_per_worker = static_cast<int>(to_int(key, v));
  else if (key == "max_len") c.max_sentence_len = static_cast<int>(to_int(key, v));
  else if (key == "zipf") c.zipf_skew = to_double(key, v);
  else if (key == "alpha_us") c.link_alpha_us = to_double(key, v);
  else if (key == "bytes_per_us") c.link_bytes_per_us = to_double(key, v);
  else if (key == "codec") {
    auto k = parse_codec_kind(v);
    if (!k) usage_error("unknown codec " + v);
    c.codec = *k;
  } else if (key == "topk") c.codec_topk = to_double(key, v);
  else if (key == "error_feedback") c.codec_error_feedback = to_int(key, v) != 0;
  else if (key == "sparse_algo") {
    auto k = parse_sparse_algo(v);
    if (!k) usage_error("unknown sparse_algo " + v);
    c.sparse_algo = *k;
  } else if (key == "cache_frac") c.cache_frac = to_double(key, v);
  else if (key == "cache_refresh_steps") c.cache_refresh_steps = static_cast<int>(to_int(key, v));
  else if (key == "cache_staleness") c.cache_staleness = static_cast<int>(to_int(key, v));
  else usage_error("unknown key " + key);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage_error("usage: perfbench_harness train|oracle|trace|probe key=value...");
  Args a;
  a.mode = argv[1];
  a.cfg.optim = OptimKind::kAdam;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) usage_error("expected key=value, got " + arg);
    apply_key(a, arg.substr(0, eq), arg.substr(eq + 1));
  }
  if (a.setup_reps < 0) usage_error("setup_reps must be >= 0");
  if (auto errors = a.cfg.validate(kWorkers); !errors.empty()) {
    usage_error("invalid config: " + errors.front().field + ": " +
                errors.front().message);
  }
  return a;
}

// The trainer's corpus mapping (one loader per rank, seeded by cfg.seed),
// rebuilt here from the same public data API to count trained tokens.
data::CorpusConfig corpus_of(const TrainConfig& c) {
  data::CorpusConfig cc;
  cc.vocab_size = c.vocab;
  cc.zipf_skew = c.zipf_skew;
  cc.min_sentence_len = c.min_sentence_len;
  cc.max_sentence_len = c.max_sentence_len;
  cc.reuse_prob = c.reuse_prob;
  cc.seed = c.seed;
  return cc;
}

// Non-pad tokens per step, summed over ranks.
std::vector<int64_t> tokens_per_step(const TrainConfig& c) {
  std::vector<int64_t> tokens(static_cast<size_t>(c.steps), 0);
  for (int r = 0; r < kWorkers; ++r) {
    auto loader = data::make_corpus_loader(corpus_of(c), r, c.batch_per_worker);
    for (int s = 0; s < c.steps; ++s) {
      tokens[static_cast<size_t>(s)] += loader.current().non_pad_tokens();
      loader.advance();
    }
  }
  return tokens;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- minimal JSON writer -------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Floats with 9 significant digits read back bit for bit.
std::string fnum(float v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

template <typename T, typename F>
std::string array(const std::vector<T>& v, F fmt) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += fmt(v[i]);
  }
  return s + "]";
}

std::string array(const std::vector<std::string>& v) {
  return array(v, [](const std::string& x) { return x; });
}

std::string losses_json(const std::vector<float>& losses) {
  return array(losses, fnum);
}

// Peak RSS of this process image. getrusage's ru_maxrss would do, but it
// survives execve and so would report the parent's size at fork whenever
// the parent is the larger; VmHWM starts afresh with the new image.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// --- modes ---------------------------------------------------------------

int run_train(const Args& a) {
  TrainConfig one = a.cfg;
  one.steps = 1;
  std::vector<double> wall1;
  for (int i = 0; i < a.setup_reps; ++i) {
    const auto t0 = Clock::now();
    run_distributed(one, kWorkers);
    wall1.push_back(seconds_since(t0));
  }
  const auto t0 = Clock::now();
  const TrainStats s = run_distributed(a.cfg, kWorkers);
  const double walls = seconds_since(t0);
  const auto tokens = tokens_per_step(a.cfg);
  std::printf(
      "{\"wall_1\":%s,\"wall_s\":%s,\"steps\":%d,\"tokens\":%s,"
      "\"losses\":%s,\"fabric_bytes\":%lld,\"fabric_messages\":%lld,"
      "\"ps_bytes\":%lld,\"peak_rss_mb\":%s}\n",
      array(wall1, num).c_str(), num(walls).c_str(), a.cfg.steps,
      array(tokens, [](int64_t t) { return std::to_string(t); }).c_str(),
      losses_json(s.losses).c_str(), static_cast<long long>(s.fabric_bytes),
      static_cast<long long>(s.fabric_messages),
      static_cast<long long>(s.ps_bytes), num(peak_rss_mb()).c_str());
  return 0;
}

int run_oracle_mode(const Args& a) {
  const TrainStats s = run_oracle(a.cfg, kWorkers);
  std::printf("{\"losses\":%s}\n", losses_json(s.losses).c_str());
  return 0;
}

int run_trace(const Args& a) {
  if (a.out_dir.empty()) usage_error("trace mode needs out=DIR");
  TrainConfig cfg = a.cfg;
  cfg.perf_profile = true;
  TrainConfig one = cfg;
  one.steps = 1;
  obs::set_tracing_enabled(true);
  auto t0 = Clock::now();
  run_distributed(one, kWorkers);
  const double wall1 = seconds_since(t0);
  obs::reset_tracing();
  obs::reset_metrics();
  t0 = Clock::now();
  const TrainStats s = run_distributed(cfg, kWorkers);
  const double walls = seconds_since(t0);
  obs::set_tracing_enabled(false);
  const int64_t dropped = obs::trace_dropped_count();
  if (!obs::write_chrome_trace(a.out_dir + "/trace.json") ||
      !obs::write_metrics_json(a.out_dir + "/metrics.json")) {
    std::fprintf(stderr, "perfbench_harness: cannot write to %s\n",
                 a.out_dir.c_str());
    return 1;
  }
  const auto tokens = tokens_per_step(cfg);
  std::vector<std::string> profiles;
  for (const obs::StepProfile& p : s.step_profiles) {
    std::string row = "[" + std::to_string(p.rank) + "," +
                      std::to_string(p.step) + "," + num(p.wall_ms);
    for (double ms : p.phase_ms) {
      row += ',';
      row += num(ms);
    }
    profiles.push_back(row + "]");
  }
  std::vector<std::string> phase_names;
  for (int i = 0; i < obs::kNumPhases; ++i) {
    phase_names.push_back(std::string("\"") +
                          obs::phase_name(static_cast<obs::Phase>(i)) + "\"");
  }
  std::printf(
      "{\"wall_1\":%s,\"wall_s\":%s,\"steps\":%d,\"tokens\":%s,"
      "\"losses\":%s,\"dropped\":%lld,\"phases\":%s,"
      "\"profiles\":%s}\n",
      num(wall1).c_str(), num(walls).c_str(), cfg.steps,
      array(tokens, [](int64_t t) { return std::to_string(t); }).c_str(),
      losses_json(s.losses).c_str(), static_cast<long long>(dropped),
      array(phase_names).c_str(),
      array(profiles).c_str());
  return 0;
}

// Median wall time of one call, in microseconds, over `rounds` rounds of
// `iters` calls each (after one warm-up round).
double median_us(int rounds, int iters, const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int r = 0; r <= rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (r > 0) per_call.push_back(us / iters);
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  return per_call[per_call.size() / 2];
}

// Keeps a probe's result observable so the timed call is not elided.
volatile float g_sink = 0.0f;

int run_probe(const Args& a) {
  const TrainConfig& c = a.cfg;
  const int rounds = kProbeRounds;
  // One step's embedding gradient as the AllGather path sees it: the ids of
  // every rank's batch (duplicates kept, as the backward pass emits them).
  std::vector<int64_t> ids, next_ids;
  std::vector<data::PrefetchingLoader> loaders;
  for (int r = 0; r < kWorkers; ++r) {
    loaders.push_back(
        data::make_corpus_loader(corpus_of(c), r, c.batch_per_worker));
    const auto cur = loaders.back().current().flat_tokens();
    const auto nxt = loaders.back().next().unique_tokens();
    ids.insert(ids.end(), cur.begin(), cur.end());
    next_ids.insert(next_ids.end(), nxt.begin(), nxt.end());
  }
  std::sort(next_ids.begin(), next_ids.end());
  next_ids.erase(std::unique(next_ids.begin(), next_ids.end()), next_ids.end());
  Rng rng(c.seed ^ 0x5eedULL);
  const int64_t n = static_cast<int64_t>(ids.size());
  const SparseRows grad(c.vocab, ids, Tensor::randn({n, c.dim}, rng));
  const SparseRows coalesced = grad.coalesced();

  std::map<std::string, double> out;
  out["tensor.coalesce_us"] = median_us(rounds, 20, [&] {
    g_sink = g_sink + static_cast<float>(grad.coalesced().nnz_rows());
  });
  out["tensor.split_us"] = median_us(rounds, 20, [&] {
    auto parts = coalesced.split_by_membership(next_ids);
    g_sink = g_sink + static_cast<float>(parts.first.nnz_rows());
  });
  std::vector<std::byte> packed(coalesced.packed_byte_size());
  out["tensor.pack_us"] = median_us(rounds, 20, [&] {
    coalesced.pack_into(packed.data(), packed.size());
    g_sink = g_sink + static_cast<float>(packed[packed.size() / 2]);
  });

  // Dense head forward+backward on one rank's batch, then its optimizer.
  const data::Batch& batch = loaders.front().current();
  Rng head_rng(c.seed + 1);
  auto head = nn::make_head(c.head, c.dim, c.hidden, c.classes, head_rng);
  const Tensor emb = Tensor::randn({batch.total_tokens(), c.dim}, rng);
  std::vector<int64_t> targets;
  for (const auto& row : batch.rows) targets.push_back(row.front() % c.classes);
  Tensor d_emb;
  out["nn.head_fwd_bwd_ms"] =
      median_us(rounds, 5, [&] {
        head->zero_grad();
        g_sink = g_sink + head->forward_backward(emb, batch.batch_size(),
                                                 batch.seq_len(), targets,
                                                 &d_emb);
      }) /
      1000.0;
  nn::Adam dense_opt(head->parameters(), c.lr);
  out["nn.dense_optim_us"] = median_us(rounds, 20, [&] { dense_opt.step(); });
  Tensor table = Tensor::randn({c.vocab, c.dim}, rng);
  nn::SparseAdam sparse_opt(c.vocab, c.dim, c.lr, /*modified=*/true);
  out["nn.sparse_optim_us"] = median_us(rounds, 20, [&] {
    sparse_opt.apply(table, coalesced, nn::SparseStep::kFull);
  });
  out["data.next_batch_us"] = median_us(rounds, 20, [&] {
    loaders.front().advance();
    g_sink = g_sink + static_cast<float>(loaders.front().current().seq_len());
  });

  // The workload's wire codec on a payload the size of the step's coalesced
  // embedding gradient (identity for the uncompressed workloads).
  const auto kind = comm::parse_codec(codec_kind_name(c.codec));
  if (!kind) usage_error("codec has no wire format to probe");
  const auto codec = comm::make_codec(*kind, c.codec_topk);
  const std::span<const float> values = coalesced.values().flat();
  std::vector<std::byte> wire(
      static_cast<size_t>(codec->encoded_bytes(static_cast<int64_t>(values.size()))));
  std::vector<float> decoded(values.size());
  const double mb = static_cast<double>(values.size() * sizeof(float)) / 1e6;
  out["codec.encode_us_per_mb"] =
      median_us(rounds, 20, [&] { codec->encode_into(values, wire.data()); }) / mb;
  out["codec.decode_us_per_mb"] =
      median_us(rounds, 20, [&] { codec->decode(wire, decoded); }) / mb;

  std::string s = "{";
  for (const auto& [k, v] : out) {
    if (s.size() > 1) s += ",";
    s += "\"" + k + "\":" + num(v);
  }
  std::printf("%s}\n", s.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "train") return run_train(a);
    if (a.mode == "oracle") return run_oracle_mode(a);
    if (a.mode == "trace") return run_trace(a);
    if (a.mode == "probe") return run_probe(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s failed: %s\n", a.mode.c_str(),
                 e.what());
    return 1;
  }
  usage_error("unknown mode " + a.mode);
}
