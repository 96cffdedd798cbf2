// ode_perfbench: end-to-end trigger-transaction benchmark over the public
// Session API.
//
//   ode_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--trace-file <path>]
//
// Each workload is a closed loop: every client thread waits for its
// user transaction to return before it sends the next, as callers of an
// embedded library do. Operation streams come from the seed and are
// generated before any timing.
//
// --trace 0 measures the end-to-end metrics with no decorators in
// place. --trace 1 runs the same workload through the StorageManager and
// Env decorators, records spans at each layer boundary in alternating
// traced/untraced windows, and reports the per-layer metrics: span
// percentiles, program counters read as before/after deltas, and the
// tracing overhead between the two kinds of window.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A failed outcome check prints correct=false, no metrics, and
// exits 1.

#include <sys/statfs.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/ordered_mutex.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value);
      } else if (flag == "--workdir") {
        args->workdir = value;
      } else if (flag == "--trace-file") {
        args->trace_file = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->workdir.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "credcard-durable") return MakeCredCardDurable();
  if (name == "statement-read") return MakeStatementRead();
  if (name == "trading-mm") return MakeTradingMm();
  return nullptr;
}

// ---------------------------------------------------------------- host

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

// common/ordered_mutex.h defines ODE_LOCK_RANK_CHECKS as 0 or 1.
constexpr bool kRankChecks = ODE_LOCK_RANK_CHECKS != 0;

constexpr bool kAsserts =
#ifdef NDEBUG
    false;
#else
    true;
#endif

std::string FileSystemOf(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

// ------------------------------------------------------------- clients

/// Everything one client thread recorded in a phase.
/// Latencies of one op kind, each with the 1-second window of the phase
/// it completed in.
struct Samples {
  std::vector<uint64_t> ns;
  std::vector<uint16_t> win;

  void Add(uint64_t latency, uint16_t window) {
    ns.push_back(latency);
    win.push_back(window);
  }
  void Append(const Samples& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
    win.insert(win.end(), other.win.begin(), other.win.end());
  }
};

struct ClientRecord {
  Samples writes, reads;
  uint64_t completed = 0, taborts = 0, retries = 0, failed = 0;
  uint64_t user_bytes = 0;
  uint64_t traced_ops = 0, untraced_ops = 0;
  ode::Status error;
  std::unique_ptr<ThreadTrace> trace;
};

struct Phase {
  std::vector<ClientRecord> clients;
  double elapsed_s = 0;
  double traced_s = 0, untraced_s = 0;  // window time per mode
};

/// Raw spans kept for the Chrome trace export, split across clients.
constexpr size_t kKeptSpans = 20000;
constexpr uint64_t kSecondNs = 1'000'000'000;
/// Traced and untraced windows alternate at this period.
constexpr uint64_t kWindowNs = 100'000'000;

/// Runs every client for `seconds`. In trace mode the main thread flips
/// ops between traced and untraced windows; ops take the mode that is
/// current when they start.
Phase RunPhase(Workload& wl, double seconds, bool trace) {
  Phase phase;
  phase.clients.resize(wl.clients());
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_window{false};
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (int c = 0; c < wl.clients(); ++c) {
    ClientRecord& rec = phase.clients[c];
    if (trace) {
      rec.trace = std::make_unique<ThreadTrace>(static_cast<uint16_t>(c),
                                                kKeptSpans / wl.clients());
    }
    threads.emplace_back([&wl, &rec, &stop, &traced_window, c, start] {
      while (!stop.load(std::memory_order_relaxed)) {
        ThreadTrace* tt = traced_window.load(std::memory_order_relaxed)
                              ? rec.trace.get()
                              : nullptr;
        tl_trace = tt;
        if (tt != nullptr) tt->BeginOp();
        OpResult res;
        const uint64_t t0 = NowNs();
        ode::Status st = wl.RunOp(c, &res);
        const uint64_t dur = NowNs() - t0;
        if (tt != nullptr) tt->EndOp(res.label);
        tl_trace = nullptr;
        rec.retries += res.retries;
        if (!st.ok()) {
          if (st.IsDeadlock() || st.IsLockTimeout()) {
            ++rec.failed;  // retries exhausted
            continue;
          }
          rec.error = st;
          stop.store(true);
          return;
        }
        ++rec.completed;
        (tt != nullptr ? rec.traced_ops : rec.untraced_ops) += 1;
        if (res.tabort) ++rec.taborts;
        rec.user_bytes += res.user_bytes_written;
        (res.read_only ? rec.reads : rec.writes)
            .Add(dur, static_cast<uint16_t>((t0 + dur - start) / kSecondNs));
      }
    });
  }
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = start;
  bool traced = false;
  while (now < deadline && !stop.load()) {
    const uint64_t until =
        trace ? std::min(deadline, now + kWindowNs) : deadline;
    traced_window.store(traced);
    while (NowNs() < until && !stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const uint64_t end = NowNs();
    (traced ? phase.traced_s : phase.untraced_s) += (end - now) / 1e9;
    now = end;
    traced = trace && !traced;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  phase.elapsed_s = (NowNs() - start) / 1e9;
  return phase;
}

// ------------------------------------------------------------ counters

/// Program counters read before and after the measured phase.
struct Counters {
  ode::MetricsSnapshot registry;
  ode::StorageStats storage;
  StorageCallCounts calls;
  DeviceCounts device;
};

Counters ReadCounters(Workload& wl, const Instruments& inst) {
  Counters c;
  c.registry = wl.session()->MetricsSnapshot();
  c.storage = wl.session()->db()->store()->stats();
  if (inst.store != nullptr) c.calls = inst.store->counts();
  if (inst.env != nullptr) c.device = inst.env->counts();
  return c;
}

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(MetricOut{name, value, unit});
  }
  const std::vector<MetricOut>& list() const { return metrics_; }
  void Print() const {
    for (const MetricOut& m : metrics_) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  std::vector<MetricOut> metrics_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<uint32_t> Gather(const Phase& phase, SpanName name, bool self) {
  std::vector<uint32_t> out;
  for (const ClientRecord& rec : phase.clients) {
    const auto& v = self ? rec.trace->self_times(name)
                         : rec.trace->durations(name);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<uint32_t> GatherAll(const Phase& phase,
                                std::initializer_list<SpanName> names,
                                bool self) {
  std::vector<uint32_t> out;
  for (SpanName n : names) {
    std::vector<uint32_t> v = Gather(phase, n, self);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

template <typename T>
double PUs(const std::vector<T>& ns, double p) {
  return Percentile(ns, p) / 1000.0;
}

/// Prints a latency line with its sample count and how many samples lie
/// beyond the reported percentile.
void PrintLatency(const char* what, const std::vector<uint64_t>& ns) {
  std::printf("  %s: n=%zu p50=%.1fus p90=%.1fus p99=%.1fus "
              "(%zu samples beyond p99)\n",
              what, ns.size(), PUs(ns, 0.50), PUs(ns, 0.90), PUs(ns, 0.99),
              ns.size() - static_cast<size_t>(std::ceil(0.99 * ns.size())));
}

/// End-to-end timings describe the run's least-disturbed 1-second
/// windows: interference on a shared host (other tenants' I/O and CPU)
/// only ever slows a window down, and one episode can last twenty
/// seconds or more, so a run's median window, or even its best quarter,
/// still moves with it. The quiet windows are those that completed at
/// least kQuietRate of the run's reference rate (its 90th-percentile
/// window), and never fewer than the fastest tenth: most of a calm run,
/// and only its fastest stretch of a disturbed one.
constexpr double kReferenceRateQuantile = 0.9;
constexpr double kQuietRate = 0.9;
constexpr double kQuietMinShare = 0.1;

/// The run's 1-second windows, the fastest (most completions) first, and
/// how many of the first are quiet.
struct QuietWindows {
  std::vector<int> by_rate;
  size_t quiet = 0;
};

QuietWindows FindQuietWindows(const std::vector<double>& rates) {
  QuietWindows q;
  q.by_rate.resize(rates.size());
  for (size_t w = 0; w < rates.size(); ++w) q.by_rate[w] = static_cast<int>(w);
  std::stable_sort(q.by_rate.begin(), q.by_rate.end(),
                   [&](int a, int b) { return rates[a] > rates[b]; });
  const double min_rate = kQuietRate * Quantile(rates, kReferenceRateQuantile);
  for (int w : q.by_rate) {
    if (rates[w] < min_rate) break;
    ++q.quiet;
  }
  q.quiet = std::max<size_t>(
      {q.quiet, 1,
       static_cast<size_t>(std::lround(
           kQuietMinShare * static_cast<double>(rates.size())))});
  return q;
}

/// The p-th percentile of the samples pooled over the quiet windows,
/// widened in rate order until 10 samples lie beyond the percentile.
/// Windows are ranked by rate, not by the latency being measured, so the
/// pick does not favour a lucky tail.
double QuietPercentileUs(const Samples& s, double p, const QuietWindows& q) {
  const size_t need = static_cast<size_t>(std::ceil(10.0 / (1.0 - p)));
  std::vector<bool> keep(q.by_rate.size(), false);
  std::vector<size_t> count(q.by_rate.size(), 0);
  for (uint16_t w : s.win) {
    if (w < count.size()) ++count[w];
  }
  size_t pooled = 0, used = 0;
  for (int w : q.by_rate) {
    if (used >= q.quiet && pooled >= need) break;
    keep[w] = true;
    pooled += count[w];
    ++used;
  }
  if (pooled < need) return PUs(s.ns, p);
  std::vector<uint64_t> v;
  v.reserve(pooled);
  for (size_t i = 0; i < s.ns.size(); ++i) {
    if (s.win[i] < keep.size() && keep[s.win[i]]) v.push_back(s.ns[i]);
  }
  return PUs(v, p);
}

/// Completions per complete 1-second window.
std::vector<double> PerWindowRate(const Samples& a, const Samples& b,
                                  int seconds) {
  std::vector<double> per_window(seconds, 0);
  for (const Samples* s : {&a, &b}) {
    for (uint16_t w : s->win) {
      if (w < seconds) per_window[w] += 1;
    }
  }
  return per_window;
}

int Fail(const std::string& why, uint64_t attempted, uint64_t failed) {
  std::printf("FAILED: %s\n", why.c_str());
  PrintResult(false, std::max<uint64_t>(attempted, 1), failed, {});
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ode_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-file <path>]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (args.trace == 0 && (kSanitized || kAsserts || kRankChecks ||
                          build_type == "Debug")) {
    std::fprintf(stderr,
                 "refusing to report end-to-end numbers from a %s build "
                 "(sanitized=%d, asserts=%d, rank checks=%d)\n",
                 build_type.c_str(), kSanitized, kAsserts, kRankChecks);
    return 3;
  }
  const bool trace = args.trace == 1;
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  fs::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::printf(
      "host: {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"lock_rank_checks\": %s, \"sanitized\": %s, \"db_fs\": %s, "
      "\"clients\": %d, \"loop\": \"closed\"}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      std::thread::hardware_concurrency(), JsonString(__VERSION__).c_str(),
      JsonString(build_type).c_str(), kRankChecks ? "true" : "false",
      kSanitized ? "true" : "false",
      JsonString(FileSystemOf(args.workdir)).c_str(), wl->clients());

  wl->Generate(args.seed);

  Instruments inst;
  if (trace) inst.env = std::make_unique<TracingEnv>(ode::Env::Default());

  // Set up several times and keep the last store: setup_s is the median.
  // A main-memory setup takes milliseconds, so more of them run, spaced
  // out to sample more than one instant of a shared host.
  const int setups = wl->on_disk() ? 5 : 21;
  std::vector<double> setup_total, setup_freeze, setup_open, setup_populate;
  for (int k = 0; k < setups; ++k) {
    if (!wl->on_disk() && k > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const std::string dir = args.workdir + "/setup-" + std::to_string(k);
    fs::create_directories(dir, ec);
    SetupTiming timing;
    const uint64_t t0 = NowNs();
    ode::Status st = wl->Setup(dir, trace ? &inst : nullptr, &timing);
    setup_total.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) return Fail("setup: " + st.ToString(), 1, 0);
    setup_freeze.push_back(timing.freeze_s);
    setup_open.push_back(timing.open_s);
    setup_populate.push_back(timing.populate_s);
    if (k + 1 < setups) {
      st = wl->Teardown();
      if (!st.ok()) return Fail("teardown: " + st.ToString(), 1, 0);
      fs::remove_all(dir, ec);
    }
  }

  const ode::StorageStats sized = wl->session()->db()->store()->stats();
  std::printf("store: objects=%llu bytes=%llu pages=%llu (pool 256 pages "
              "on disk)\n",
              static_cast<unsigned long long>(sized.objects),
              static_cast<unsigned long long>(sized.bytes),
              static_cast<unsigned long long>(sized.pages));

  // Warm caches and the WAL, then measure.
  const double warmup_s = std::clamp(args.seconds / 5.0, 1.0, 3.0);
  Phase warm = RunPhase(*wl, warmup_s, /*trace=*/false);
  for (const ClientRecord& rec : warm.clients) {
    if (!rec.error.ok()) return Fail("warmup: " + rec.error.ToString(), 1, 0);
  }
  const Counters before = ReadCounters(*wl, inst);
  Phase phase = RunPhase(*wl, args.seconds, trace);
  const Counters after = ReadCounters(*wl, inst);

  uint64_t completed = 0, failed = 0, taborts = 0, retries = 0,
           user_bytes = 0, traced_ops = 0, untraced_ops = 0;
  Samples writes, reads;
  for (const ClientRecord& rec : phase.clients) {
    completed += rec.completed;
    failed += rec.failed;
    taborts += rec.taborts;
    retries += rec.retries;
    user_bytes += rec.user_bytes;
    traced_ops += rec.traced_ops;
    untraced_ops += rec.untraced_ops;
    writes.Append(rec.writes);
    reads.Append(rec.reads);
  }
  const uint64_t attempted = completed + failed;
  for (const ClientRecord& rec : phase.clients) {
    if (!rec.error.ok()) {
      return Fail("op: " + rec.error.ToString(), attempted, failed);
    }
  }
  std::printf("ops: attempted=%llu completed=%llu failed=%llu "
              "failed_ratio=%.6f taborts=%llu client_retries=%llu "
              "elapsed=%.3fs\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(failed),
              Ratio(failed, attempted),
              static_cast<unsigned long long>(taborts),
              static_cast<unsigned long long>(retries), phase.elapsed_s);
  const std::vector<double> rates =
      PerWindowRate(writes, reads, args.seconds);
  std::printf("  txns per 1 s window:");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\n");
  PrintLatency("write latency", writes.ns);
  PrintLatency("read latency", reads.ns);

  MetricList metrics;
  const double txns = static_cast<double>(completed);
  auto delta = [&](const char* counter) {
    return static_cast<double>(after.registry.CounterValue(counter) -
                               before.registry.CounterValue(counter));
  };
  if (trace) {
    // Self-check: the decorators saw exactly the calls the program
    // counted.
    const uint64_t dec_reads = after.calls.reads - before.calls.reads;
    const uint64_t prog_reads =
        after.storage.object_reads - before.storage.object_reads;
    const uint64_t dec_syncs = after.device.wal_syncs - before.device.wal_syncs;
    const uint64_t prog_syncs =
        static_cast<uint64_t>(delta("ode_commit_fsyncs_total"));
    std::printf("self-check: storage reads decorator=%llu program=%llu; "
                "WAL syncs decorator=%llu program=%llu\n",
                static_cast<unsigned long long>(dec_reads),
                static_cast<unsigned long long>(prog_reads),
                static_cast<unsigned long long>(dec_syncs),
                static_cast<unsigned long long>(prog_syncs));
    if (dec_reads != prog_reads || dec_syncs != prog_syncs) {
      return Fail("decorator counts disagree with program counters",
                  attempted, failed);
    }

    uint64_t op_ns = 0, covered_ns = 0;
    for (const ClientRecord& rec : phase.clients) {
      op_ns += rec.trace->op_ns();
      covered_ns += rec.trace->covered_ns();
    }
    const double coverage = Ratio(covered_ns, op_ns);

    using S = SpanName;
    const auto invoke = GatherAll(phase, {S::kInvoke, S::kInvokeTabort}, false);
    const auto invoke_self =
        GatherAll(phase, {S::kInvoke, S::kInvokeTabort}, true);
    const auto commit = Gather(phase, S::kCommit, false);
    const auto storage_commit =
        GatherAll(phase, {S::kStorageCommit, S::kStorageCommitWait}, false);
    const auto fsync = Gather(phase, S::kWalSync, false);
    std::vector<uint64_t> batch_sizes;
    for (const ClientRecord& rec : phase.clients) {
      const auto& b = rec.trace->batch_sizes();
      batch_sizes.insert(batch_sizes.end(), b.begin(), b.end());
    }

    metrics.Add("odepp.invoke_us.p50", PUs(invoke, 0.50), "us");
    metrics.Add("odepp.invoke_us.p99", PUs(invoke, 0.99), "us");
    metrics.Add("odepp.invoke_self_us.p50", PUs(invoke_self, 0.50), "us");
    metrics.Add("odepp.load_us.p50", PUs(Gather(phase, S::kLoad, false), 0.5),
                "us");
    metrics.Add("odepp.commit_us.p50", PUs(commit, 0.50), "us");
    metrics.Add("odepp.commit_us.p99", PUs(commit, 0.99), "us");
    metrics.Add("odepp.commit_self_us.p50",
                PUs(Gather(phase, S::kCommit, true), 0.50), "us");
    metrics.Add("odepp.abort_us.p50",
                PUs(GatherAll(phase, {S::kAbort, S::kInvokeTabort}, false),
                    0.50),
                "us");

    const double posts = delta("ode_trigger_posts_total");
    const double state_hits = delta("ode_trigger_state_cache_hits_total");
    const double state_misses = delta("ode_trigger_state_cache_misses_total");
    const double lookup_hits = delta("ode_trigger_lookup_cache_hits_total");
    const double lookup_misses = delta("ode_trigger_lookup_cache_misses_total");
    metrics.Add("trigger.posts_per_txn", Ratio(posts, txns), "count");
    metrics.Add("trigger.fsm_moves_per_post",
                Ratio(delta("ode_trigger_fsm_moves_total"), posts), "count");
    metrics.Add("trigger.mask_evals_per_post",
                Ratio(delta("ode_trigger_mask_evals_total"), posts), "count");
    metrics.Add("trigger.fires_per_post",
                Ratio(delta("ode_trigger_fires_total"), posts), "count");
    metrics.Add("trigger.fast_path_skip_ratio",
                Ratio(delta("ode_trigger_fast_path_skips_total"), posts),
                "ratio");
    metrics.Add("trigger.state_cache_hit_ratio",
                Ratio(state_hits, state_hits + state_misses), "ratio");
    metrics.Add("trigger.lookup_cache_hit_ratio",
                Ratio(lookup_hits, lookup_hits + lookup_misses), "ratio");
    metrics.Add("trigger.writebacks_per_txn",
                Ratio(delta("ode_trigger_state_writebacks_total"), txns),
                "count");
    metrics.Add("trigger.tabort_ratio", Ratio(taborts, txns), "ratio");

    metrics.Add("txn.lock_wait_us_per_txn",
                Ratio(delta("ode_lock_wait_ns_total") / 1000.0, txns), "us");
    metrics.Add("txn.lock_conflicts_per_txn",
                Ratio(delta("ode_lock_conflicts_total"), txns), "count");
    metrics.Add("txn.deadlocks_timeouts_per_txn",
                Ratio(delta("ode_lock_deadlocks_total") +
                          delta("ode_lock_timeouts_total"),
                      txns),
                "count");
    metrics.Add("txn.client_retries_per_txn", Ratio(retries, txns), "count");

    const StorageCallCounts& c0 = before.calls;
    const StorageCallCounts& c1 = after.calls;
    const double log_commits = (c1.leader_commits - c0.leader_commits) +
                               (c1.follower_commits - c0.follower_commits);
    metrics.Add("storage.read_calls_per_txn", Ratio(c1.reads - c0.reads, txns),
                "count");
    metrics.Add("storage.write_calls_per_txn",
                Ratio(c1.writes - c0.writes, txns), "count");
    metrics.Add("storage.alloc_calls_per_txn",
                Ratio(c1.allocs - c0.allocs, txns), "count");
    metrics.Add("storage.read_us.p50",
                PUs(Gather(phase, S::kStorageRead, false), 0.50), "us");
    metrics.Add("storage.read_us.p99",
                PUs(Gather(phase, S::kStorageRead, false), 0.99), "us");
    metrics.Add("storage.write_us.p50",
                PUs(Gather(phase, S::kStorageWrite, false), 0.50), "us");
    metrics.Add("storage.commit_us.p50", PUs(storage_commit, 0.50), "us");
    metrics.Add("storage.commit_us.p99", PUs(storage_commit, 0.99), "us");
    metrics.Add("storage.commit_self_us.p50",
                PUs(Gather(phase, S::kStorageCommit, true), 0.50), "us");
    metrics.Add("storage.commit_wait_us.p50",
                PUs(Gather(phase, S::kStorageCommitWait, false), 0.50), "us");
    metrics.Add("storage.commit_batch_size.p50", Percentile(batch_sizes, 0.5),
                "count");
    const double hits =
        after.storage.buffer_hits - before.storage.buffer_hits;
    const double misses =
        after.storage.buffer_misses - before.storage.buffer_misses;
    metrics.Add("storage.buffer_hit_ratio", Ratio(hits, hits + misses),
                "ratio");
    metrics.Add("storage.page_reads_per_txn",
                Ratio(after.storage.page_reads - before.storage.page_reads,
                      txns),
                "count");
    metrics.Add("storage.page_writes_per_txn",
                Ratio(after.storage.page_writes - before.storage.page_writes,
                      txns),
                "count");

    const DeviceCounts& d0 = before.device;
    const DeviceCounts& d1 = after.device;
    const double device_written = (d1.wal_bytes - d0.wal_bytes) +
                                  (d1.page_write_bytes - d0.page_write_bytes);
    metrics.Add("device.fsyncs_per_commit",
                Ratio(d1.wal_syncs - d0.wal_syncs, log_commits), "count");
    metrics.Add("device.fsync_us.p50", PUs(fsync, 0.50), "us");
    metrics.Add("device.fsync_us.p99", PUs(fsync, 0.99), "us");
    metrics.Add("device.wal_bytes_per_txn",
                Ratio(d1.wal_bytes - d0.wal_bytes, txns), "B");
    metrics.Add("device.page_bytes_written_per_txn",
                Ratio(d1.page_write_bytes - d0.page_write_bytes, txns), "B");
    metrics.Add("device.page_bytes_read_per_txn",
                Ratio(d1.page_read_bytes - d0.page_read_bytes, txns), "B");
    metrics.Add("device.bytes_written_per_user_byte",
                Ratio(device_written, user_bytes), "ratio");

    metrics.Add("setup.freeze_s", Median(setup_freeze), "s");
    metrics.Add("setup.open_s", Median(setup_open), "s");
    metrics.Add("setup.populate_s", Median(setup_populate), "s");
    const double traced_rate = Ratio(traced_ops, phase.traced_s);
    const double untraced_rate = Ratio(untraced_ops, phase.untraced_s);
    metrics.Add("trace_overhead_pct",
                100.0 * (1.0 - Ratio(traced_rate, untraced_rate)), "%");
    metrics.Add("trace.coverage_ratio", coverage, "ratio");

    if (!args.trace_file.empty()) {
      std::vector<const ThreadTrace*> traces;
      for (const ClientRecord& rec : phase.clients) {
        traces.push_back(rec.trace.get());
      }
      fs::create_directories(fs::path(args.trace_file).parent_path(), ec);
      if (WriteChromeTrace(args.trace_file, traces, wl->op_labels())) {
        std::printf("chrome trace: %s\n", args.trace_file.c_str());
      }
    }
    if (coverage < 0.95) {
      return Fail("trace.coverage_ratio " + std::to_string(coverage) +
                      " below 0.95",
                  attempted, failed);
    }
  }

  ode::Status verified = wl->Verify();
  if (!verified.ok()) {
    return Fail("outcome check: " + verified.ToString(), attempted, failed);
  }
  std::printf("outcome checks: passed\n");

  if (!trace) {
    const QuietWindows quiet = FindQuietWindows(rates);
    std::printf("quiet windows: %zu of %zu\n", quiet.quiet, rates.size());
    metrics.Add("ops_per_s", Quantile(rates, kReferenceRateQuantile), "1/s");
    metrics.Add("write_p50_us", QuietPercentileUs(writes, 0.50, quiet), "us");
    metrics.Add("write_p90_us", QuietPercentileUs(writes, 0.90, quiet), "us");
    metrics.Add("read_p50_us", QuietPercentileUs(reads, 0.50, quiet), "us");
    metrics.Add("read_p99_us", QuietPercentileUs(reads, 0.99, quiet), "us");
    metrics.Add("setup_s", Median(setup_total), "s");
    metrics.Add("bytes_per_user_byte",
                Ratio(wl->stored_bytes(), wl->live_user_bytes()), "ratio");
  }
  fs::remove_all(args.workdir, ec);
  std::printf("metrics:\n");
  metrics.Print();
  PrintResult(true, std::max<uint64_t>(attempted, 1), failed, metrics.list());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
