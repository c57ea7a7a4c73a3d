// Serving workloads: the real sybiltd_server binary as a child process,
// driven over loopback by the single-threaded open-loop generator.
//
//   ingest_upsert  8 campaigns x 64 accounts x 32 tasks, every (account,
//                  task) primed during set-up, so each timed report
//                  overwrites an existing observation: the cost sits in
//                  socket / HTTP parse / decode / route / queue / apply.
//                  A light read stream probes one campaign for freshness.
//   ingest_growth  4 campaigns enrolling thousands of new accounts during
//                  the run (10% Sybil clones in groups of 5 replaying one
//                  schedule), so nearly every report is a new (account,
//                  task) membership: pair-count apply, regroup, CRH refine
//                  and publish dominate.  A read stream GETs truths and
//                  groups of every campaign; the truths reads double as
//                  freshness probes.
//
// The server process is pinned at fork to every allowed core but the last,
// which the generator takes; after the timed set-up, the measured server's
// event-loop thread moves to the first of those cores and its other
// threads to the rest.  With a single allowed core everything shares it
// and the context says so.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "http_client.h"
#include "layers.h"
#include "loadgen.h"
#include "server/json.h"

namespace perfbench {

namespace {

struct ServingSpec {
  std::size_t campaigns = 0;
  std::size_t tasks = 0;
  std::size_t loops = 0;
  std::size_t shards = 0;
  std::size_t batch = 0;         // reports per POST
  double ingest_rps = 0.0;       // POSTs per second, all campaigns
  double read_rps = 0.0;         // GETs per second on the read connection
  std::size_t probed = 0;        // campaigns whose truths are probed
  bool growth = false;
  std::size_t accounts = 0;      // upsert: accounts per campaign
  std::size_t schedule_len = 0;  // growth: tasks per account
  // batch_s: POST drain latency (upsert, where a drain is a fixed round of
  // hand-offs) or the in-process batch run_framework (growth, where the
  // drain's few milliseconds of convergence work swing with the host).
  bool batch_by_drain = false;
};

ServingSpec spec_for(const std::string& workload) {
  ServingSpec s;
  if (workload == "ingest_upsert") {
    s.campaigns = 8;
    s.tasks = 32;
    s.accounts = 64;
    s.loops = 1;
    s.shards = 2;
    s.batch = 64;
    s.ingest_rps = 8000.0;
    s.read_rps = 1000.0;
    s.probed = 1;
    s.batch_by_drain = true;
  } else {
    s.campaigns = 4;
    s.tasks = 48;
    s.schedule_len = 8;
    s.loops = 1;
    s.shards = 2;
    s.batch = 16;
    s.ingest_rps = 125.0;
    s.read_rps = 8000.0;
    s.probed = 4;
    s.growth = true;
  }
  return s;
}

constexpr double kLeadIn = 0.5;      // untimed open-loop lead-in, seconds
constexpr double kTimeout = 10.0;    // per-run response deadline after last due
constexpr int kSetupRepetitions = 9;
constexpr std::size_t kDrainsPerCampaign = 3;
constexpr double kBatchWindow = 2.0;  // in-process batch_s: at least this long
constexpr std::size_t kMinBatchPasses = 5;

// ---------------------------------------------------------------------------
// Child process

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Pins thread `tid` (0 = the calling thread) to `cpus`.
void pin_to(const std::vector<int>& cpus, pid_t tid = 0) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args,
                const std::vector<int>& cpus, std::size_t pool_threads) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    std::vector<std::string> argv_storage{binary};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string threads = std::to_string(pool_threads);

    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      pin_to(cpus);
      ::setenv("SYBILTD_THREADS", threads.c_str(), 1);
      ::dup2(out[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    // The server prints "listening on HOST:PORT" once bound.
    std::string line;
    const double deadline = now_s() + 30.0;
    char c = 0;
    while (line.find('\n') == std::string::npos && now_s() < deadline) {
      pollfd pfd{out[0], POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t n = ::read(out[0], &c, 1);
      if (n <= 0) break;
      line += c;
    }
    ::close(out[0]);
    const std::size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
      kill_and_reap();
      throw std::runtime_error("server did not start: " + binary);
    }
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  }

  ~ServerProcess() { kill_and_reap(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  // Pins the idle server's event-loop threads, told apart as the threads
  // parked in poll (/proc/<pid>/task/<tid>/wchan), one per core of
  // `loop_cpus`, and every other thread to `other_cpus`.  False, and no
  // change, unless exactly loop_cpus.size() threads are in poll.
  bool pin_threads(const std::vector<int>& loop_cpus,
                   const std::vector<int>& other_cpus) const {
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    std::vector<pid_t> loops;
    std::vector<pid_t> others;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') continue;
        std::ifstream in(dir + "/" + e->d_name + "/wchan");
        std::string wchan;
        std::getline(in, wchan);
        const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
        (wchan.find("poll") != std::string::npos ? loops : others).push_back(tid);
      }
      ::closedir(d);
    }
    if (loops.size() != loop_cpus.size() || other_cpus.empty()) return false;
    for (std::size_t i = 0; i < loops.size(); ++i) pin_to({loop_cpus[i]}, loops[i]);
    for (const pid_t tid : others) pin_to(other_cpus, tid);
    return true;
  }

  // SIGTERM (graceful drain) and wait; the exit status, or -1.
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_s() + 60.0;
    while (true) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) return -1;
      if (now_s() > deadline) {
        kill_and_reap();
        return -1;
      }
      ::usleep(200);
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// /proc readers for the server process

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command: state(3) ... utime(14) stime(15).
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_invol_ctx(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  double total = 0.0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      total += status_field(dir + "/" + e->d_name + "/status",
                            "nonvoluntary_ctxt_switches:");
    }
    ::closedir(d);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Prometheus scrape

using Scrape = std::map<std::string, double>;

Scrape parse_prometheus(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

// Sum of every series of a family (unlabeled or any label set).
double family(const Scrape& s, const std::string& name) {
  double total = 0.0;
  for (auto it = s.lower_bound(name); it != s.end(); ++it) {
    if (it->first.compare(0, name.size(), name) != 0) break;
    if (it->first.size() == name.size() || it->first[name.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

double delta(const Scrape& before, const Scrape& after,
             const std::string& name) {
  return family(after, name) - family(before, name);
}

// p99 of an unlabeled histogram's growth between two scrapes.
double histogram_p99(const Scrape& before, const Scrape& after,
                     const std::string& name) {
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> cumulative;  // (edge, delta)
  for (auto it = after.lower_bound(prefix); it != after.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    const std::string le = it->first.substr(prefix.size());
    if (le.rfind("+Inf", 0) == 0) continue;
    const auto b = before.find(it->first);
    cumulative.emplace_back(std::atof(le.c_str()),
                            it->second - (b == before.end() ? 0.0 : b->second));
  }
  std::sort(cumulative.begin(), cumulative.end());
  std::vector<double> edges;
  std::vector<double> counts;
  double previous = 0.0;
  for (const auto& [edge, cum] : cumulative) {
    edges.push_back(edge);
    counts.push_back(cum - previous);
    previous = cum;
  }
  return bucket_percentile(edges, counts, 0.99);
}

// ---------------------------------------------------------------------------
// Inputs

struct SentReport {
  std::uint32_t account = 0;
  std::uint32_t task = 0;
  double value = 0.0;
  double timestamp_hours = 0.0;
};

struct PoolEntry {
  std::string request;  // full HTTP request bytes
  std::vector<SentReport> reports;
};

struct Inputs {
  std::vector<PoolEntry> priming;             // one per campaign (upsert)
  std::vector<std::vector<PoolEntry>> posts;  // per campaign
  std::vector<std::string> reads;             // rendered GETs, cycled
  std::vector<int> read_campaign;             // probed campaign or -1
  std::size_t primed_per_campaign = 0;
};

// `v` as the server will decode it from the request text: rounded to
// `digits` decimals, so the batch mirror sees exactly the server's value.
double as_rendered(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::strtod(buf, nullptr);
}

PoolEntry make_post(std::size_t campaign, std::vector<SentReport> reports,
                    bool timestamps) {
  for (SentReport& r : reports) {
    r.value = as_rendered(r.value, 3);
    r.timestamp_hours = timestamps ? as_rendered(r.timestamp_hours, 4) : 0.0;
  }
  PoolEntry e;
  std::string body = "[";
  char buf[160];
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SentReport& r = reports[i];
    const int n =
        timestamps
            ? std::snprintf(buf, sizeof(buf),
                            "%s{\"account\":%u,\"task\":%u,\"value\":%.3f,"
                            "\"timestamp_hours\":%.4f}",
                            i > 0 ? "," : "", r.account, r.task, r.value,
                            r.timestamp_hours)
            : std::snprintf(buf, sizeof(buf),
                            "%s{\"account\":%u,\"task\":%u,\"value\":%.3f}",
                            i > 0 ? "," : "", r.account, r.task, r.value);
    body.append(buf, static_cast<std::size_t>(n));
  }
  body += "]";
  e.request = render_request(
      "POST", "/v1/campaigns/" + std::to_string(campaign) + "/reports", body);
  e.reports = std::move(reports);
  return e;
}

// Per-campaign report stream of the growth workload: accounts enrol in
// order, each visiting `len` distinct tasks; every block of 50 accounts
// holds 45 legitimate ones and 5 Sybil clones replaying one schedule.
std::vector<SentReport> growth_stream(std::size_t reports_needed,
                                      std::size_t tasks, std::size_t len,
                                      std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> task_of(
      0, static_cast<std::uint32_t>(tasks - 1));
  std::normal_distribution<double> truth(-60.0, 5.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::uniform_real_distribution<double> gap(0.05, 0.3);
  std::uniform_real_distribution<double> jitter(0.0, 0.02);
  std::vector<double> task_truth(tasks);
  for (double& t : task_truth) t = truth(rng);

  std::vector<SentReport> out;
  std::uint32_t account = 0;
  double clock_h = 0.0;
  const auto schedule = [&] {
    std::vector<std::uint32_t> seq;
    while (seq.size() < len) {
      const std::uint32_t t = task_of(rng);
      if (std::find(seq.begin(), seq.end(), t) == seq.end()) seq.push_back(t);
    }
    return seq;
  };
  while (out.size() < reports_needed) {
    for (std::size_t a = 0; a < 45; ++a, ++account) {
      double ts = clock_h;
      for (const std::uint32_t t : schedule()) {
        out.push_back({account, t, task_truth[t] + noise(rng), ts});
        ts += gap(rng);
      }
      clock_h += 0.01;
    }
    const std::vector<std::uint32_t> replay = schedule();
    for (std::size_t c = 0; c < 5; ++c, ++account) {
      double ts = clock_h + jitter(rng);
      for (const std::uint32_t t : replay) {
        out.push_back({account, t, -50.0 + 0.5 * noise(rng), ts});
        ts += 0.1;
      }
    }
    clock_h += 0.01;
  }
  return out;
}

Inputs make_inputs(const ServingSpec& spec, std::uint64_t seed,
                   double total_s) {
  Inputs in;
  const std::size_t C = spec.campaigns;
  in.posts.resize(C);
  const std::size_t per_campaign = static_cast<std::size_t>(
      std::ceil(spec.ingest_rps * total_s / static_cast<double>(C))) + 2;
  for (std::size_t c = 0; c < C; ++c) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15uLL + 1000003u * (c + 1));
    if (!spec.growth) {
      std::normal_distribution<double> value(-65.0, 6.0);
      std::vector<SentReport> all;
      for (std::uint32_t a = 0; a < spec.accounts; ++a) {
        for (std::uint32_t t = 0; t < spec.tasks; ++t) {
          all.push_back({a, t, value(rng), 0.0});
        }
      }
      in.priming.push_back(make_post(c, std::move(all), false));
      in.primed_per_campaign = spec.accounts * spec.tasks;
      // A pool of distinct upsert batches, cycled through the run.
      std::uniform_int_distribution<std::uint32_t> account(
          0, static_cast<std::uint32_t>(spec.accounts - 1));
      std::uniform_int_distribution<std::uint32_t> task(
          0, static_cast<std::uint32_t>(spec.tasks - 1));
      for (std::size_t p = 0; p < 64; ++p) {
        std::vector<SentReport> batch(spec.batch);
        for (SentReport& r : batch) r = {account(rng), task(rng), value(rng), 0.0};
        in.posts[c].push_back(make_post(c, std::move(batch), false));
      }
    } else {
      const std::vector<SentReport> stream = growth_stream(
          per_campaign * spec.batch, spec.tasks, spec.schedule_len, rng);
      for (std::size_t k = 0; k < per_campaign; ++k) {
        std::vector<SentReport> batch(
            stream.begin() + static_cast<std::ptrdiff_t>(k * spec.batch),
            stream.begin() + static_cast<std::ptrdiff_t>((k + 1) * spec.batch));
        in.posts[c].push_back(make_post(c, std::move(batch), true));
      }
    }
  }
  // Read cycle: truths of each probed campaign, then groups of one campaign
  // (rotating), so every probed campaign is polled once per cycle.
  for (std::size_t g = 0; g < spec.probed; ++g) {
    for (std::size_t c = 0; c < spec.probed; ++c) {
      in.reads.push_back(render_request(
          "GET", "/v1/campaigns/" + std::to_string(c) + "/truths"));
      in.read_campaign.push_back(static_cast<int>(c));
    }
    in.reads.push_back(render_request(
        "GET", "/v1/campaigns/" + std::to_string(g) + "/groups"));
    in.read_campaign.push_back(-1);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Batch mirror of what the server accepted, for the drained-truths check.

class Mirror {
 public:
  explicit Mirror(std::size_t tasks) : tasks_(tasks) {}
  void apply(const std::vector<SentReport>& reports) {
    for (const SentReport& r : reports) {
      if (r.account >= rows_.size()) rows_.resize(r.account + 1);
      auto& row = rows_[r.account];
      auto it = std::find_if(row.begin(), row.end(), [&](const auto& o) {
        return o.task == r.task;
      });
      const sybiltd::core::AccountObservation obs{r.task, r.value,
                                                  r.timestamp_hours};
      if (it != row.end()) {
        *it = obs;
      } else {
        row.push_back(obs);
      }
    }
  }
  sybiltd::core::FrameworkInput input() const {
    sybiltd::core::FrameworkInput in;
    in.task_count = tasks_;
    in.accounts.resize(rows_.size());
    for (std::size_t a = 0; a < rows_.size(); ++a) {
      auto reports = rows_[a];
      std::sort(reports.begin(), reports.end(),
                [](const auto& x, const auto& y) { return x.task < y.task; });
      in.accounts[a].reports = std::move(reports);
    }
    return in;
  }

 private:
  std::size_t tasks_;
  std::vector<std::vector<sybiltd::core::AccountObservation>> rows_;
};

// ---------------------------------------------------------------------------
// One set-up: server start -> /readyz -> campaigns -> priming -> inputs.

struct Deployment {
  std::unique_ptr<ServerProcess> server;
  Inputs inputs;
  double inputs_s = 0.0;  // of which input generation
};

Response call(std::uint16_t port, std::string_view method,
              std::string_view path, std::string_view body = {}) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  ResponseParser parser;
  Response r = round_trip(fd, parser, method, path, body);
  ::close(fd);
  return r;
}

// A counter of GET /v1/status's "engine" object, or -1.
double engine_counter(const std::string& status_body, const std::string& key) {
  sybiltd::server::JsonValue doc;
  if (!sybiltd::server::json_parse(status_body, doc)) return -1.0;
  const sybiltd::server::JsonValue* engine = doc.find("engine");
  const sybiltd::server::JsonValue* v =
      engine != nullptr ? engine->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->number : -1.0;
}

Deployment deploy(const ServingSpec& spec, const Options& options,
                  const std::vector<int>& server_cpus) {
  Deployment d;
  d.server = std::make_unique<ServerProcess>(
      options.server_bin,
      std::vector<std::string>{"--port", "0", "--campaigns", "0", "--loops",
                               std::to_string(spec.loops), "--shards",
                               std::to_string(spec.shards),
                               "--queue-capacity", "65536"},
      server_cpus, spec.shards);  // SYBILTD_THREADS: one worker per shard
  const std::uint16_t port = d.server->port();
  const double deadline = now_s() + 30.0;
  while (call(port, "GET", "/readyz").status != 200) {
    if (now_s() > deadline) throw std::runtime_error("server never ready");
    ::usleep(100);
  }
  const int fd = connect_loopback(port);
  ResponseParser parser;
  const std::string create = "{\"tasks\": " + std::to_string(spec.tasks) + "}";
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    const Response r = round_trip(fd, parser, "POST", "/v1/campaigns", create);
    if (r.status != 201 && r.status != 200) {
      throw std::runtime_error("campaign creation returned " +
                               std::to_string(r.status));
    }
  }
  const double inputs_start = now_s();
  d.inputs = make_inputs(spec, options.seed, kLeadIn + options.seconds);
  d.inputs_s = now_s() - inputs_start;
  for (const PoolEntry& p : d.inputs.priming) {
    const Response r = exchange(fd, parser, p.request);
    if (r.status != 202) {
      throw std::runtime_error("priming batch refused: " +
                               std::to_string(r.status));
    }
  }
  // Wait until the priming is applied, so the timed run starts warm.
  const std::uint64_t primed = d.inputs.primed_per_campaign * spec.campaigns;
  while (primed > 0) {
    const Response r = round_trip(fd, parser, "GET", "/v1/status");
    if (engine_counter(r.body, "applied") >= static_cast<double>(primed)) break;
    if (now_s() > deadline) throw std::runtime_error("priming never applied");
    ::usleep(100);
  }
  ::close(fd);
  return d;
}

}  // namespace

RunResult run_serving(const Options& options) {
  const double process_start = now_s();
  const ServingSpec spec = spec_for(options.workload);
  RunResult result;
  add_machine_context(result);

  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> server_cpus = cpus;
  std::vector<int> loadgen_cpus = cpus;
  if (cpus.size() >= 2) {
    server_cpus.pop_back();
    loadgen_cpus = {cpus.back()};
  }
  const std::size_t connections =
      std::min<std::size_t>(std::max<std::size_t>(cpus.size(), 2), 4);
  const std::size_t ingest_conns = connections - 1;

  // Set-up, several times; the last deployment is measured.
  std::vector<double> setups;
  std::vector<double> inputs_s;
  Deployment d;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (d.server) {
      d.server->stop();
      d.server.reset();
    }
    const double start = rep == 0 ? process_start : now_s();
    d = deploy(spec, options, server_cpus);
    setups.push_back(now_s() - start);
    inputs_s.push_back(d.inputs_s);
  }
  ServerProcess& server = *d.server;
  const Inputs& in = d.inputs;
  const std::size_t C = spec.campaigns;

  // Outside the timed set-up: give the measured server's loop threads
  // cores of their own, so shard work never preempts them.  A loop thread
  // is recognisable once idle in poll; not finding it fails the run.
  bool loops_pinned = false;
  if (server_cpus.size() > spec.loops) {
    const auto split = server_cpus.begin() + static_cast<std::ptrdiff_t>(spec.loops);
    const std::vector<int> loop_cpus(server_cpus.begin(), split);
    const std::vector<int> other_cpus(split, server_cpus.end());
    const double pin_deadline = now_s() + 2.0;
    while (!(loops_pinned = server.pin_threads(loop_cpus, other_cpus)) &&
           now_s() < pin_deadline) {
      ::usleep(1000);
    }
    result.check(loops_pinned,
                 "server event-loop threads found parked in poll and pinned "
                 "to cores of their own");
  }

  result.set_context("workload", json_string(options.workload));
  result.set_context("seed", std::to_string(options.seed));
  result.set_context("setup_s_each", json_list(setups));
  result.set_context("setup_inputs_s_each", json_list(inputs_s));
  result.set_context("server_cpus", json_list(server_cpus));
  result.set_context("loadgen_cpus", json_list(loadgen_cpus));
  result.set_context("cores_shared", cpus.size() < 2 ? "true" : "false");
  result.set_context("server_loops", std::to_string(spec.loops));
  result.set_context("server_shards", std::to_string(spec.shards));
  result.set_context("server_thread_layout",
                     loops_pinned ? "\"loops on their own cores\""
                                  : "\"whole process on server_cpus\"");
  result.set_context("server_pool_threads", std::to_string(spec.shards));
  result.set_context("connections", std::to_string(connections));
  result.set_context("offered_reports_per_s",
                     std::to_string(spec.ingest_rps * spec.batch));
  result.set_context("offered_posts_per_s", std::to_string(spec.ingest_rps));
  result.set_context("read_rate_per_s", std::to_string(spec.read_rps));
  result.set_context("batch_reports", std::to_string(spec.batch));
  result.set_context("lead_in_s", std::to_string(kLeadIn));

  Scrape before;
  if (options.trace) {
    before = parse_prometheus(call(server.port(), "GET", "/metrics").body);
  }

  std::vector<int> fds;
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = connect_loopback(server.port());
    if (fd < 0) throw std::runtime_error("connect failed");
    set_nonblocking(fd);
    fds.push_back(fd);
  }

  // Schedule: POST i (campaign i % C, its k = i / C -th) due at i / rate;
  // read r due at (r + 0.5) / read rate.  Tags: (index << 1) | is_read.
  const double total_s = kLeadIn + options.seconds;
  const std::size_t posts = static_cast<std::size_t>(spec.ingest_rps * total_s);
  const std::size_t reads = static_cast<std::size_t>(spec.read_rps * total_s);
  std::size_t next_post = 0;
  std::size_t next_read = 0;
  const auto post_due = [&](std::size_t i) {
    return static_cast<double>(i) / spec.ingest_rps;
  };
  const auto read_due = [&](std::size_t r) {
    return (static_cast<double>(r) + 0.5) / spec.read_rps;
  };
  const auto post_entry = [&](std::size_t i) -> const PoolEntry& {
    const std::size_t c = i % C;
    const std::size_t k = i / C;
    return in.posts[c][spec.growth ? k : k % in.posts[c].size()];
  };
  ServingRecording recording;
  recording.campaigns = C;
  recording.tasks = spec.tasks;
  for (std::size_t c = 0; c < in.priming.size(); ++c) {
    recording.ops.push_back({&in.priming[c].request, c, true, false});
  }

  std::vector<Mirror> mirrors(C, Mirror(spec.tasks));
  for (std::size_t c = 0; c < in.priming.size(); ++c) {
    mirrors[c].apply(in.priming[c].reports);
  }
  std::vector<double> request_ms, read_ms, fresh_ms, lag_ms;
  std::vector<std::size_t> fresh_cursor(C, 0);
  std::uint64_t accepted_reports = 0;
  std::uint64_t window_reports = 0;
  double window_last_done = kLeadIn;
  std::uint64_t post_failures = 0;
  std::uint64_t read_failures = 0;
  const std::size_t B = spec.batch;

  // Nothing in the loop may allocate its way into a stall.
  recording.ops.reserve(recording.ops.size() + posts + reads);
  request_ms.reserve(posts);
  read_ms.reserve(reads);
  fresh_ms.reserve(posts);
  lag_ms.reserve(posts + reads);
  pin_to(loadgen_cpus);
  const double cpu_before = proc_cpu_s(server.pid());
  const double ctx_before = proc_invol_ctx(server.pid());
  const double origin = now_s() + 0.01;
  const LoopResult loop = run_open_loop(
      fds,
      [&](Planned* p) {
        const bool post_left = next_post < posts;
        const bool read_left = next_read < reads;
        if (!post_left && !read_left) return false;
        if (post_left && (!read_left || post_due(next_post) <= read_due(next_read))) {
          const std::size_t i = next_post++;
          p->due = post_due(i);
          p->conn = (i % C) % ingest_conns;
          p->bytes = &post_entry(i).request;
          p->tag = i << 1;
          recording.ops.push_back({p->bytes, i % C, true, p->due >= kLeadIn});
        } else {
          const std::size_t r = next_read++;
          p->due = read_due(r);
          p->conn = ingest_conns;
          p->bytes = &in.reads[r % in.reads.size()];
          p->tag = (r << 1) | 1u;
          const int c = in.read_campaign[r % in.reads.size()];
          recording.ops.push_back({p->bytes, c < 0 ? 0 : static_cast<std::size_t>(c),
                                   false, p->due >= kLeadIn});
        }
        return true;
      },
      [&](Completion& c) {
        const bool timed = c.due >= kLeadIn;
        const double latency_ms = 1e3 * (c.done - c.due);
        if (timed) lag_ms.push_back(1e3 * (c.sent - c.due));
        if ((c.tag & 1u) == 0) {
          const std::size_t i = static_cast<std::size_t>(c.tag >> 1);
          if (c.status == 202) {
            accepted_reports += B;
            if (timed) {
              window_reports += B;
              window_last_done = std::max(window_last_done, c.done);
            }
            mirrors[i % C].apply(post_entry(i).reports);
          } else {
            ++post_failures;
          }
          if (timed) request_ms.push_back(latency_ms);
          return;
        }
        const std::size_t r = static_cast<std::size_t>(c.tag >> 1);
        if (c.status != 200) {
          ++read_failures;
          if (timed) read_ms.push_back(latency_ms);
          return;
        }
        if (timed) read_ms.push_back(latency_ms);
        const int campaign = in.read_campaign[r % in.reads.size()];
        if (campaign < 0) return;
        // Freshness: every POST of this campaign that the published
        // snapshot's applied_reports now covers becomes visible at c.done.
        const std::size_t key = c.body.find("\"applied_reports\": ");
        if (key == std::string::npos) return;
        const double applied = std::atof(c.body.c_str() + key + 19);
        const auto cc = static_cast<std::size_t>(campaign);
        while (static_cast<double>(in.primed_per_campaign +
                                   (fresh_cursor[cc] + 1) * B) <= applied) {
          const std::size_t i = fresh_cursor[cc] * C + cc;
          const double due = post_due(i);
          if (due >= kLeadIn) fresh_ms.push_back(1e3 * (c.done - due));
          ++fresh_cursor[cc];
        }
      },
      origin, kTimeout);
  const double loop_end = now_s();
  const double cpu_after = proc_cpu_s(server.pid());
  const double ctx_after = proc_invol_ctx(server.pid());
  pin_to(cpus);
  for (const int fd : fds) ::close(fd);

  // POST drain is the engine-wide convergence barrier: every accepted
  // report applied, then every campaign run to convergence and published.
  std::vector<double> drain_s;
  {
    const int fd = connect_loopback(server.port());
    ResponseParser parser;
    for (std::size_t k = 0; k < kDrainsPerCampaign * C; ++k) {
      const std::size_t c = k % C;
      const double t0 = now_s();
      const Response r = round_trip(
          fd, parser, "POST", "/v1/campaigns/" + std::to_string(c) + "/drain");
      if (r.status == 200) drain_s.push_back(now_s() - t0);
    }
    ::close(fd);
    result.check(drain_s.size() == kDrainsPerCampaign * C,
                 "every drain answered 200 (" + std::to_string(drain_s.size()) +
                     "/" + std::to_string(kDrainsPerCampaign * C) + ")");
  }
  const double hwm_mb = peak_rss_mb(std::to_string(server.pid()));
  result.set_context("drain_s", json_list(drain_s));

  // Checks: generator-counted 202s == engine accepted == applied.
  const Response status = call(server.port(), "GET", "/v1/status");
  const double engine_accepted = engine_counter(status.body, "accepted");
  const double engine_applied = engine_counter(status.body, "applied");
  const double generator_accepted = static_cast<double>(
      accepted_reports + in.primed_per_campaign * C);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "generator 202 reports %.0f == engine accepted %.0f == "
                "applied %.0f",
                generator_accepted, engine_accepted, engine_applied);
  result.check(generator_accepted == engine_accepted &&
                   engine_accepted == engine_applied,
               buf);
  result.check(loop.failed == 0 && post_failures == 0 && read_failures == 0,
               "every POST answered 202 and every GET 200 (" +
                   std::to_string(loop.failed + post_failures + read_failures) +
                   " failed)");
  result.attempted += loop.completed + loop.failed;
  result.failed += loop.failed + post_failures + read_failures;

  // Drained truths equal a batch run_framework over the same reports.
  // Without batch_by_drain, batch_s times that batch side: every
  // campaign's FrameworkInput (the accepted reports) to its
  // FrameworkResult and the comparison, in this process on one thread;
  // the trimmed mean over passes.
  std::vector<sybiltd::core::FrameworkInput> batch_inputs;
  std::vector<sybiltd::server::JsonValue> drained(C);
  bool truths_ok = true;
  for (std::size_t c = 0; c < C; ++c) {
    batch_inputs.push_back(mirrors[c].input());
    const Response r = call(server.port(), "GET",
                            "/v1/campaigns/" + std::to_string(c) + "/truths");
    truths_ok = truths_ok && sybiltd::server::json_parse(r.body, drained[c]) &&
                drained[c].find("truths") != nullptr;
  }
  sybiltd::ThreadPool::set_global_concurrency(1);
  pin_to(loadgen_cpus);
  sybiltd::core::AgTsOptions agts;
  agts.rho = 1.0;  // the server's default grouping threshold
  std::vector<double> batch_s;
  double worst = 0.0;
  const double batch_end = now_s() + kBatchWindow;
  const std::size_t min_passes = spec.batch_by_drain ? 1 : kMinBatchPasses;
  while (truths_ok && (batch_s.size() < min_passes ||
                       (!spec.batch_by_drain && now_s() < batch_end))) {
    const double t0 = now_s();
    for (std::size_t c = 0; c < C; ++c) {
      const auto batch =
          sybiltd::core::run_framework(batch_inputs[c], sybiltd::core::AgTs(agts));
      const auto& truths = drained[c].find("truths")->array;
      if (truths.size() != batch.truths.size()) {
        truths_ok = false;
        continue;
      }
      for (std::size_t j = 0; j < batch.truths.size(); ++j) {
        const bool wire_null = !truths[j].is_number();
        if (std::isnan(batch.truths[j]) || wire_null) {
          truths_ok = truths_ok && std::isnan(batch.truths[j]) && wire_null;
          continue;
        }
        worst = std::max(worst, std::fabs(truths[j].number - batch.truths[j]));
      }
    }
    batch_s.push_back(now_s() - t0);
  }
  std::snprintf(buf, sizeof(buf),
                "drained truths equal batch run_framework (max |diff| %.3g <= 1e-9)",
                worst);
  result.check(truths_ok && worst <= 1e-9, buf);
  pin_to(cpus);
  sybiltd::ThreadPool::set_global_concurrency(
      sybiltd::ThreadPool::configured_concurrency());

  Scrape after;
  if (options.trace) {
    after = parse_prometheus(call(server.port(), "GET", "/metrics").body);
  }
  result.check(server.stop() == 0, "server drained and exited 0 on SIGTERM");
  d.server.reset();

  const Percentile lag99 = percentile(lag_ms, 0.99);
  const auto add_tails = [&](RunResult& into) {
    into.add_percentile("request_p99_ms", sliced_percentile(request_ms, 0.99), 1.0, "ms");
    into.add_percentile("fresh_p99_ms", sliced_percentile(fresh_ms, 0.99), 1.0, "ms");
    into.add_percentile("read_p99_ms", sliced_percentile(read_ms, 0.99), 1.0, "ms");
  };
  result.set_context("loadgen_lag_p99_ms", std::to_string(lag99.value));
  result.set_context("loop_wall_s", std::to_string(loop_end - origin));

  {
    RunResult e2e;
    RunResult& into = options.trace ? e2e : result;
    into.add("setup_s", median(setups), "s", setups.size());
    // The window closes when its last POST is answered: a server that
    // falls behind stretches it and the rate drops below the offered one.
    into.add("reports_per_s",
             static_cast<double>(window_reports) /
                 std::max(window_last_done - kLeadIn, 1e-9),
             "reports/s");
    into.add("cpu_us_per_report",
             1e6 * (cpu_after - cpu_before) /
                 static_cast<double>(std::max<std::uint64_t>(accepted_reports, 1)),
             "us");
    into.add_percentile("request_p50_ms", sliced_percentile(request_ms, 0.5), 1.0, "ms");
    into.add_percentile("fresh_p50_ms", sliced_percentile(fresh_ms, 0.5), 1.0, "ms");
    into.add_percentile("read_p50_ms", sliced_percentile(read_ms, 0.5), 1.0, "ms");
    const std::vector<double>& batch = spec.batch_by_drain ? drain_s : batch_s;
    into.add("batch_s", trimmed_mean(batch), "s", batch.size());
    into.add("peak_rss_mb", hwm_mb, "MB");
    // Tails are per-layer metrics (traced run); print them here too.
    RunResult tails;
    add_tails(tails);
    tails.add("loadgen.lag_p99_ms", lag99.value, "ms", lag99.samples);
    for (const Metric& m : tails.metrics) {
      into.notes.push_back(m.name + " " + std::to_string(m.value) + " " +
                           m.unit + " (n=" + std::to_string(m.samples) + ")");
    }
    if (!options.trace) return result;
    for (const Metric& m : e2e.metrics) {
      result.notes.push_back("traced-run e2e " + m.name + " " +
                             std::to_string(m.value) + " " + m.unit);
    }
  }

  // Traced run: counters from the server's /metrics, spans from the
  // in-process replay of the recorded request bytes.
  LayerValues layers;
  const double fast = delta(before, after, "server_decode_fast_total");
  const double fallback = delta(before, after, "server_decode_fallback_total");
  layers["server.decode_fast_frac"] = fast / std::max(fast + fallback, 1.0);
  const double hits = delta(before, after, "server_snapshot_cache_hits_total");
  const double misses = delta(before, after, "server_snapshot_cache_misses_total");
  layers["server.cache_hit_frac"] = hits / std::max(hits + misses, 1.0);
  const double applied = delta(before, after, "pipeline_applied_total");
  layers["pipeline.regroups_per_1k_reports"] =
      1e3 * delta(before, after, "pipeline_regroups_total") / std::max(applied, 1.0);
  layers["pipeline.reports_per_batch"] =
      applied / std::max(delta(before, after, "pipeline_batches_total"), 1.0);
  layers["pipeline.queue_wait_p99_us"] =
      histogram_p99(before, after, "pipeline_queue_wait_us");
  layers["common.pool_queue_wait_p99_us"] =
      histogram_p99(before, after, "threadpool_queue_wait_us");
  layers["common.pool_steal_frac"] =
      delta(before, after, "threadpool_stolen_total") /
      std::max(delta(before, after, "threadpool_executed_total"), 1.0);
  layers["proc.ctx_switches_invol"] = ctx_after - ctx_before;

  Tracer tracer;
  double plain_s = 0.0;
  double traced_s = 0.0;
  const std::uint64_t refused =
      replay_serving_layers(recording, tracer, layers, &plain_s, &traced_s);
  result.check(refused == 0,
               "in-process replay: every decode, submit and ingest accepted, "
               "every read 200 (" + std::to_string(refused) + " refused)");
  for (const auto& input : batch_inputs) {
    // AG-TR reads each account's reports in timestamp order.
    sybiltd::core::FrameworkInput by_time = input;
    for (auto& account : by_time.accounts) {
      std::sort(account.reports.begin(), account.reports.end(),
                [](const auto& a, const auto& b) {
                  return a.timestamp_hours < b.timestamp_hours;
                });
    }
    measure_agtr_framework(by_time, sybiltd::core::AgTrOptions{}, tracer, layers);
    measure_agts_framework(input, 1.0, tracer, layers);
  }
  layers["loadgen.lag_p99_ms"] = lag99.value;
  layers["trace.overhead_frac"] = traced_s / std::max(plain_s, 1e-9) - 1.0;
  emit_layer_metrics(layers, result);
  add_tails(result);
  write_spans(tracer, options, result);
  return result;
}

}  // namespace perfbench
