// pipeline_bench — the end-to-end pipeline benchmark client.
//
// Plays every site of a collection from this one process, through the
// library's public calls (F0Estimator / DeltaSiteSession / FreqSketch
// ingest, serialize, frame_encode, TcpTransport::send_with_ack), against a
// real `ustream serve` referee started as a child process. The referee is
// observed only from outside: its ack bytes, its admin /query and
// /metrics.json routes, the `--json --stats` lines it prints at exit, and
// wait4() rusage.
//
//   pipeline_bench --workload oneshot-f0|live-deltas|freq-topk --seed N
//                  --seconds S --trace 0|1 --ustream PATH --workdir DIR
//                  [--trace-out FILE]
//
// A run repeats whole collection rounds until --seconds have passed (a
// traced run also until its samples support each workload's fixed tail
// percentile). The
// last stdout line is one JSON object: correct / attempted / failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit code 0 iff the run completed; a failed output check reports
// "correct": false.
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/frame.h"
#include "core/f0_estimator.h"
#include "core/params.h"
#include "distributed/continuous.h"
#include "freq/freq_sketch.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "query/service.h"

#include "inputs.h"
#include "json.h"
#include "proc.h"
#include "trace.h"

namespace {

using namespace ustream;
using perfbench::Json;
using perfbench::now_ns;
using perfbench::Tracer;

// Parameters shared by every F0 site: the CLI defaults (eps 0.1, delta
// 0.05 -> capacity 3600, 37 copies) and one fixed hash seed, so all sites
// are coordinated. The seed of the run shapes only the input labels.
constexpr double kEps = 0.1;
constexpr double kDelta = 0.05;
constexpr std::uint64_t kHashSeed = 0x5eed0123456789abULL;
constexpr std::size_t kBatch = 65536;  // labels per add_batch call

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ustream;
  std::string workdir;
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--trace") o.trace = val == "1";
    else if (key == "--ustream") o.ustream = val;
    else if (key == "--workdir") o.workdir = val;
    else if (key == "--trace-out") o.trace_out = val;
    else throw std::runtime_error("unknown flag " + key);
  }
  if (o.workload.empty() || o.ustream.empty() || o.workdir.empty()) {
    throw std::runtime_error("need --workload, --ustream and --workdir");
  }
  return o;
}

// ------------------------------------------------------------- statistics

// Linear interpolation between order statistics (the "type 7" rule).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}
double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-6; }
double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// True when `n` samples leave at least ten beyond quantile q.
bool supports_tail(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

// The referee's metrics registry as rendered by obs::render_json.
class Registry {
 public:
  explicit Registry(const Json& doc) {
    for (const Json& m : doc.at("metrics").items) {
      Entry& e = entries_[m.at("name").text];
      if (m.at("type").text == "histogram") {
        e.count += m.num("count");
        e.sum += m.num("sum");
      } else {
        e.value += m.num("value");
      }
    }
  }
  double value(const std::string& name) const { return find(name).value; }
  double sum(const std::string& name) const { return find(name).sum; }
  double count(const std::string& name) const { return find(name).count; }

 private:
  struct Entry {
    double value = 0.0, count = 0.0, sum = 0.0;
  };
  const Entry& find(const std::string& name) const {
    static const Entry kEmpty;
    const auto it = entries_.find(name);
    return it == entries_.end() ? kEmpty : it->second;
  }
  std::map<std::string, Entry> entries_;
};

// Mean of a referee nanosecond histogram, in ms. Its log2 buckets cannot
// give an exact median; sum / count is exact.
double mean_ms(const Registry& reg, const std::string& name) {
  return reg.count(name) > 0 ? reg.sum(name) / reg.count(name) * 1e-6 : 0.0;
}

// One admin round trip: the request line, then the body until the referee
// closes (the admin protocol is response-then-close).
std::string admin_get(std::uint16_t port, const std::string& request) {
  net::Socket sock = net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds(5000),
                                      std::chrono::milliseconds(30000));
  const std::string line = request + "\n";
  net::send_all(sock, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
  std::string body;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      body.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  return body;
}

std::string query_request(const std::string& expr) {
  return "GET /query?e=" + query::percent_encode(expr);
}

// ------------------------------------------------------------- outcome

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (errors.size() < 20) errors.push_back(what);
    correct = false;
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

// ------------------------------------------------------------- referee

struct Referee {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t admin_port = 0;
  std::string dir;
  std::string out_path;
  std::string stdout_path;
  double ready_ms = 0.0;  // spawn until both port files are written
};

Referee start_referee(const Options& o, const std::string& tag,
                      const std::vector<std::string>& extra) {
  Referee r;
  r.dir = o.workdir + "/" + tag;
  std::filesystem::remove_all(r.dir);
  std::filesystem::create_directories(r.dir);
  r.out_path = r.dir + "/union.sk";
  r.stdout_path = r.dir + "/stdout";
  std::vector<std::string> argv = {o.ustream,         "serve",
                                   "--shards",        "1",
                                   "--port-file",     r.dir + "/port",
                                   "--admin-port-file", r.dir + "/admin-port",
                                   "--out",           r.out_path,
                                   "--json",          "--stats"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const std::int64_t t0 = now_ns();
  r.pid = perfbench::spawn(argv, r.stdout_path, r.dir + "/stderr");
  const auto wait = std::chrono::milliseconds(20000);
  r.port = perfbench::wait_port_file(r.dir + "/port", r.pid, wait);
  r.admin_port = perfbench::wait_port_file(r.dir + "/admin-port", r.pid, wait);
  r.ready_ms = ms_since(t0);
  return r;
}

// The referee's stdout after exit: the --json result line, then the
// --stats registry line.
std::pair<Json, Json> exit_lines(const Referee& r) {
  const std::string text = perfbench::read_text(r.stdout_path);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t eol = text.find('\n', start);
    const std::string line = text.substr(start, eol == std::string::npos ? eol : eol - start);
    if (!line.empty()) lines.push_back(line);
    if (eol == std::string::npos) break;
    start = eol + 1;
  }
  if (lines.size() < 2) throw std::runtime_error("referee printed no --json/--stats lines");
  return {Json::parse(lines[0]), Json::parse(lines[1])};
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  const std::string s = perfbench::read_text(path);
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

net::TcpTransportConfig transport_config(const Referee& r) {
  net::TcpTransportConfig c;
  c.port = r.port;
  c.io_timeout = std::chrono::milliseconds(30000);
  return c;
}

// ------------------------------------------------------------- exact side

std::vector<std::uint64_t> sorted_distinct(const std::vector<std::vector<std::uint64_t>>& streams,
                                           std::size_t first, std::size_t last) {
  std::vector<std::uint64_t> all;
  for (std::size_t s = first; s < last; ++s) {
    all.insert(all.end(), streams[s].begin(), streams[s].end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

// DLRT envelope of tests/test_query.cpp: a 5-sigma band around the exact
// count, floored for near-empty results.
bool within_dlrt_envelope(double estimate, int level, double exact) {
  const double scale = std::ldexp(1.0, level) - 1.0;
  const double sigma = std::sqrt(std::max(exact, 1.0) * scale);
  return std::fabs(estimate - exact) <= 5.0 * sigma + 4.0 * (scale + 1.0);
}

// ------------------------------------------------------------- accumulators

// One collection round's figures. Its latency samples are the ranges of
// the pooled vectors it appended to.
struct Round {
  double wall_s = 0.0;
  double items_per_s = 0.0;
  double collect_s = 0.0;
  bool traced = false;
  std::size_t rtt_begin = 0, rtt_end = 0, query_begin = 0, query_end = 0;
};

// Samples pooled over a run's rounds. Rounds alternate traced/untraced in
// a traced run; the items/s of each kind prices the tracing.
struct Samples {
  std::vector<Round> per_round;
  std::vector<double> rtt_us;
  std::vector<double> rtt_idle_us;
  std::vector<double> rtt_inflight_us;
  std::vector<double> query_ms;
  std::vector<double> query_candidates;
  std::vector<double> rss_mb;
  std::vector<double> ready_ms;
  std::vector<double> exit_ms;
  std::vector<double> merge_reduce_ms;
  std::vector<double> server_eval_ms;
  double ack_wait_ns = 0.0;
  double loop_ns = 0.0;
  std::uint64_t frames = 0;          // client-sent frames (attempts)
  std::uint64_t bytes = 0;           // client-sent frame bytes
  std::uint64_t referee_frames = 0;  // referee-counted
  std::uint64_t referee_bytes_in = 0;
  std::uint64_t frames_resync = 0;
  double decode_ns = 0.0;
  double decode_count = 0.0;
  std::uint64_t wal_records = 0, wal_bytes = 0, wal_fsyncs = 0;
  std::uint64_t site_rounds = 0;  // sites x rounds
  std::uint64_t traced_items = 0;
  std::uint64_t traced_sites = 0;
  std::uint64_t traced_sketch_bytes = 0;
  double setup_s = 0.0;
};

// Closes a round: its wall time (first label until the union is
// available), items/s and end-of-stream time, plus the samples it added.
void close_round(Samples& s, bool traced, double wall_s, double rate, double collect_s,
                 const std::string& tag) {
  const std::size_t rtt_begin = s.per_round.empty() ? 0 : s.per_round.back().rtt_end;
  const std::size_t query_begin = s.per_round.empty() ? 0 : s.per_round.back().query_end;
  s.per_round.push_back({wall_s, rate, collect_s, traced, rtt_begin, s.rtt_us.size(),
                         query_begin, s.query_ms.size()});
  std::fprintf(stderr, "%s%s: %.3f s, %.0f items/s\n", tag.c_str(), traced ? " (traced)" : "",
               wall_s, rate);
}

void record_push(Samples& s, double rtt_us, bool inflight) {
  s.rtt_us.push_back(rtt_us);
  (inflight ? s.rtt_inflight_us : s.rtt_idle_us).push_back(rtt_us);
  s.ack_wait_ns += rtt_us * 1e3;
}

// The samples of a run's untraced rounds (in a traced run, every other
// round is untraced).
struct Pooled {
  std::vector<double> items_per_s, collect_s, rtt_us, query_ms;
};
Pooled untraced_rounds(const Samples& s) {
  Pooled p;
  for (const Round& r : s.per_round) {
    if (r.traced) continue;
    p.items_per_s.push_back(r.items_per_s);
    p.collect_s.push_back(r.collect_s);
    p.rtt_us.insert(p.rtt_us.end(), s.rtt_us.begin() + static_cast<std::ptrdiff_t>(r.rtt_begin),
                    s.rtt_us.begin() + static_cast<std::ptrdiff_t>(r.rtt_end));
    p.query_ms.insert(p.query_ms.end(),
                      s.query_ms.begin() + static_cast<std::ptrdiff_t>(r.query_begin),
                      s.query_ms.begin() + static_cast<std::ptrdiff_t>(r.query_end));
  }
  return p;
}

// True once the run's rounds hold enough samples for both tails.
bool tails_supported(const Samples& s, double rtt_q, double query_q) {
  const Pooled p = untraced_rounds(s);
  return supports_tail(p.rtt_us.size(), rtt_q) && supports_tail(p.query_ms.size(), query_q);
}

// Every end-to-end metric: medians of per-round figures and percentiles of
// the pooled samples, over the untraced rounds.
void report_end_to_end(const Samples& s, double rtt_q, double query_q, Outcome& out) {
  const Pooled p = untraced_rounds(s);
  const double site_rounds = static_cast<double>(s.site_rounds);
  out.set("setup_s", s.setup_s, "s");
  out.set("items_per_s", median(p.items_per_s), "items/s");
  out.set("collect_s", median(p.collect_s), "s");
  out.set("push_rtt_p50_us", median(p.rtt_us), "us");
  out.set("net.push_rtt_tail_us", quantile(p.rtt_us, rtt_q), "us");
  // A mean, not a median: one-shot query times are bimodal within a run
  // and the median jumps between the modes as their shares shift.
  out.set("query_mean_ms", mean(p.query_ms), "ms");
  out.set("query.tail_ms", quantile(p.query_ms, query_q), "ms");
  out.set("wire_bytes_per_site", static_cast<double>(s.bytes) / site_rounds, "bytes");
  out.set("wire_frames_per_site", static_cast<double>(s.frames) / site_rounds, "frames");
  out.set("referee_peak_rss_mb", median(s.rss_mb), "MB");
}

// Per-layer metrics the referee exports or the client counts in every
// round; the span-based ones are filled by each workload. A layer a
// workload does not exercise reports 0.
void report_common_layers(const Samples& s, Outcome& out) {
  const double rounds = static_cast<double>(std::max<std::size_t>(s.per_round.size(), 1));
  out.set("core.merge_reduce_ms", median(s.merge_reduce_ms), "ms");
  out.set("common.frame_decode_us_per_frame",
          s.decode_count > 0 ? s.decode_ns / s.decode_count * 1e-3 : 0.0, "us");
  out.set("net.push_rtt_p50_us_idle", median(s.rtt_idle_us), "us");
  out.set("net.push_rtt_p50_us_query_inflight", median(s.rtt_inflight_us), "us");
  out.set("net.ack_wait_pct", s.loop_ns > 0 ? 100.0 * s.ack_wait_ns / s.loop_ns : 0.0, "%");
  out.set("net.frames_sent", static_cast<double>(s.frames) / rounds, "count");
  out.set("net.frames_accepted", static_cast<double>(s.referee_frames) / rounds, "count");
  out.set("net.frames_resync", static_cast<double>(s.frames_resync) / rounds, "count");
  out.set("net.bytes_sent", static_cast<double>(s.bytes) / rounds, "bytes");
  out.set("net.bytes_in", static_cast<double>(s.referee_bytes_in) / rounds, "bytes");
  out.set("durability.wal_records", static_cast<double>(s.wal_records) / rounds, "count");
  out.set("durability.wal_bytes", static_cast<double>(s.wal_bytes) / rounds, "bytes");
  out.set("durability.fsyncs", static_cast<double>(s.wal_fsyncs) / rounds, "count");
  out.set("cli.serve_ready_ms", median(s.ready_ms), "ms");
  out.set("cli.serve_exit_ms", median(s.exit_ms), "ms");
  out.set("query.server_eval_ms_mean", median(s.server_eval_ms), "ms");
  out.set("query.candidates", median(s.query_candidates), "count");
  std::vector<double> untraced_rates, traced_rates;
  for (const Round& r : s.per_round) {
    (r.traced ? traced_rates : untraced_rates).push_back(r.items_per_s);
  }
  const double untraced = median(untraced_rates);
  const double traced = median(traced_rates);
  out.set("bench.trace_overhead_pct", traced > 0 ? 100.0 * (untraced / traced - 1.0) : 0.0, "%");
  out.set("bench.rounds", static_cast<double>(s.per_round.size()), "count");
}

// Zero-fills every per-layer name a workload left unset, so each traced
// run prints the full set.
void fill_layer_defaults(Outcome& out) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"core.add_batch_ns_per_item", "ns"},
      {"core.serialize_us_per_site", "us"},
      {"core.sketch_bytes_per_site", "bytes"},
      {"common.frame_encode_us_per_frame", "us"},
      {"distributed.delta_add_ns_per_item", "ns"},
      {"distributed.delta_encode_us_per_frame", "us"},
      {"distributed.suppressed_per_item", "ratio"},
      {"distributed.delta_bytes_per_frame", "bytes"},
      {"freq.add_batch_ns_per_item", "ns"},
      {"freq.serialize_us_per_site", "us"},
      {"freq.sketch_bytes_per_site", "bytes"},
      {"bench.poller_lag_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) {
    if (out.metrics.count(name) == 0) out.set(name, 0.0, unit);
  }
}

// Byte and frame totals seen by the client against the referee's own
// ledger: the frames it counted, the frame bytes it counted (from its exit
// line, when it printed one), and bytes_in, which also holds each frame's
// 4-byte length prefix.
void check_wire_totals(Outcome& out, const ChannelStats& client, double referee_frames,
                       std::optional<double> referee_bytes, double bytes_in,
                       const std::string& round) {
  out.check(static_cast<double>(client.messages) == referee_frames,
            round + ": client sent " + std::to_string(client.messages) +
                " frames, referee counted " + std::to_string(referee_frames));
  if (referee_bytes) {
    out.check(static_cast<double>(client.total_bytes) == *referee_bytes,
              round + ": client sent " + std::to_string(client.total_bytes) +
                  " bytes, referee counted " + std::to_string(*referee_bytes));
  }
  out.check(static_cast<double>(client.total_bytes + 4 * client.messages) == bytes_in,
            round + ": referee bytes_in " + std::to_string(bytes_in) +
                " != frame bytes + 4-byte prefixes");
}

// setup_s: the process's one cold set-up, from its start until the first
// round's referee is up and its sites are built, less the benchmark's own
// input generation (t_inputs until t_setup). Later rounds' set-ups are
// warm and not counted.
double cold_setup_s(std::int64_t t_main, std::int64_t t_inputs, std::int64_t t_setup) {
  return secs(now_ns() - t_setup + t_inputs - t_main);
}

// Runs rounds until the time is spent. A traced run, the only kind that
// prints the tails, holds at least one traced and one untraced round and
// goes on until its untraced rounds' samples support the tail percentiles.
void run_rounds(const Options& o, Tracer& tracer, std::int64_t t_start,
                const std::function<bool()>& enough, const std::function<void(std::size_t)>& round) {
  // Traced rounds are the even ones, so two rounds hold one of each.
  for (std::size_t r = 0;; ++r) {
    if (secs(now_ns() - t_start) >= o.seconds && (!o.trace || (r >= 2 && enough()))) break;
    tracer.enabled = o.trace && r % 2 == 0;
    round(r);
  }
  tracer.enabled = false;
}

// ======================================================= one-shot rounds
//
// The round oneshot-f0 and freq-topk share: every site ingests its stream
// with add_batch, then serializes, frames and pushes ONE frame over one
// connection to a fresh referee; before the last frame, a closed loop of
// queries runs against /query; the round ends when the referee has exited
// with --out written.

template <typename Sketch>
struct OneShot {
  std::size_t sites = 0;
  std::size_t queries = 0;  // per round, before the last frame
  std::string query;        // the expression sent to /query
  PayloadKind kind = PayloadKind::kOpaque;
  // Per-layer metric prefix and span names. String literals: the tracer
  // keeps the pointers until the run ends.
  const char* layer = "";
  const char* add_span = "";
  const char* serialize_span = "";
  double rtt_q = 0.90;
  double query_q = 0.90;
  std::function<Sketch()> make_site;
  std::function<std::vector<std::string>(const std::string& dir)> referee_args;
  // The benchmark's own side, run once before the rounds and left out of
  // every timing: the inputs, and the computations the checks compare
  // against.
  std::function<const std::vector<std::vector<std::uint64_t>>&()> prepare;
  std::function<void(const Json& answer, const std::string& round)> check_answer;
  std::function<void(const Json& result, const Referee& referee, const std::string& round)>
      check_union;
};

template <typename Sketch>
void run_one_shot(const Options& o, std::int64_t t_main, Tracer& tracer, Outcome& out,
                  const OneShot<Sketch>& w) {
  Samples s;
  const std::int64_t t_inputs = now_ns();
  const auto& streams = w.prepare();
  std::uint64_t labels = 0;
  for (const auto& stream : streams) labels += stream.size();

  run_rounds(
      o, tracer, now_ns(), [&] { return tails_supported(s, w.rtt_q, w.query_q); },
      [&](std::size_t r) {
        const std::string tag = "r" + std::to_string(r);
        // The round's set-up: a fresh referee up and fresh site sketches.
        const std::int64_t t_setup = now_ns();
        Referee ref = start_referee(o, tag, w.referee_args(o.workdir + "/" + tag));
        std::vector<Sketch> sites(w.sites, w.make_site());
        if (r == 0) s.setup_s = cold_setup_s(t_main, t_inputs, t_setup);
        s.ready_ms.push_back(ref.ready_ms);
        const auto epoch = static_cast<std::uint32_t>(r);
        const std::uint32_t round_span = tracer.begin("round", Tracer::kNone, epoch);

        const std::int64_t t0 = now_ns();
        {
          Tracer::Scope ingest(tracer, "ingest");
          for (std::size_t i = 0; i < w.sites; ++i) {
            const auto& stream = streams[i];
            for (std::size_t off = 0; off < stream.size(); off += kBatch) {
              const std::size_t n = std::min(kBatch, stream.size() - off);
              Tracer::Scope span(tracer, w.add_span, static_cast<std::uint32_t>(i), epoch);
              sites[i].add_batch(std::span<const std::uint64_t>(stream.data() + off, n));
            }
          }
        }
        const std::int64_t t_collect = now_ns();
        const std::uint32_t collect_span = tracer.begin("collect");
        net::TcpTransport tx(w.sites, transport_config(ref));
        std::int64_t query_ns = 0;
        std::uint64_t sketch_bytes = 0;
        for (std::size_t i = 0; i < w.sites; ++i) {
          if (i + 1 == w.sites) {
            const std::int64_t q0 = now_ns();
            Tracer::Scope battery(tracer, "query_battery");
            for (std::size_t q = 0; q < w.queries; ++q) {
              const std::int64_t t = now_ns();
              std::string body;
              {
                Tracer::Scope span(tracer, "query");
                body = admin_get(ref.admin_port, query_request(w.query));
              }
              s.query_ms.push_back(ms_since(t));
              out.attempted += 1;
              if (body.rfind("error", 0) == 0) {
                out.failed += 1;
                continue;
              }
              const Json answer = Json::parse(body);
              if (answer.has("candidates")) s.query_candidates.push_back(answer.num("candidates"));
              w.check_answer(answer, tag);
            }
            query_ns = now_ns() - q0;
          }
          const auto site = static_cast<std::uint32_t>(i);
          Tracer::Scope frame_span(tracer, "site_frame", site, epoch);
          std::vector<std::uint8_t> payload;
          {
            Tracer::Scope span(tracer, w.serialize_span, site, epoch);
            payload = sites[i].serialize();
          }
          sketch_bytes += payload.size();
          std::vector<std::uint8_t> frame;
          {
            Tracer::Scope span(tracer, "common.frame_encode", site, epoch);
            frame = frame_encode({w.kind, site, 0}, payload);
          }
          const std::int64_t t = now_ns();
          net::PushAck ack;
          {
            Tracer::Scope span(tracer, "net.push", site, epoch);
            ack = tx.send_with_ack(i, frame);
          }
          record_push(s, static_cast<double>(now_ns() - t) * 1e-3, false);
          out.attempted += 1;
          if (ack != net::PushAck::kAccepted) out.failed += 1;
        }
        const std::int64_t t_last_ack = now_ns();
        perfbench::Exit ex;
        {
          Tracer::Scope span(tracer, "cli.serve_exit");
          ex = perfbench::reap(ref.pid);
        }
        const std::int64_t t_union = now_ns();
        tracer.end(collect_span);
        tracer.end(round_span);

        s.loop_ns += static_cast<double>(t_union - t0 - query_ns);
        s.exit_ms.push_back(static_cast<double>(t_union - t_last_ack) * 1e-6);
        const double rate = static_cast<double>(labels) / secs(t_union - t0 - query_ns);
        close_round(s, tracer.enabled, secs(t_union - t0), rate,
                    secs(t_union - t_collect - query_ns), tag);
        if (tracer.enabled) {
          s.traced_items += labels;
          s.traced_sites += w.sites;
          s.traced_sketch_bytes += sketch_bytes;
        }
        s.rss_mb.push_back(ex.peak_rss_mb);
        s.site_rounds += w.sites;

        // ---- checks against the benchmark's own computations
        out.check(ex.exited_normally(), tag + ": referee exit status " + std::to_string(ex.status));
        const auto [result, stats] = exit_lines(ref);
        const Registry reg(stats);
        const ChannelStats wire = tx.stats();
        s.frames += wire.messages;
        s.bytes += wire.total_bytes;
        const double bytes_in = reg.value("ustream_referee_bytes_in_total");
        s.referee_frames +=
            static_cast<std::uint64_t>(reg.value("ustream_referee_frames_accepted_total"));
        s.referee_bytes_in += static_cast<std::uint64_t>(bytes_in);
        s.frames_resync +=
            static_cast<std::uint64_t>(reg.value("ustream_referee_frames_resync_total"));
        check_wire_totals(out, wire, result.num("wire_frames"), result.num("wire_bytes"),
                          bytes_in, tag);
        s.decode_ns += reg.sum("ustream_frame_decode_ns");
        s.decode_count += reg.count("ustream_frame_decode_ns");
        s.merge_reduce_ms.push_back(reg.sum("ustream_merge_reduce_ns") * 1e-6);
        s.server_eval_ms.push_back(mean_ms(reg, "ustream_query_latency_ns"));
        if (result.has("wal")) {
          const Json& wal = result.at("wal");
          s.wal_records += wal.u64("records");
          s.wal_bytes += wal.u64("bytes");
          s.wal_fsyncs += wal.u64("fsyncs");
        }
        w.check_union(result, ref, tag);
        std::filesystem::remove_all(ref.dir);
      });

  report_end_to_end(s, w.rtt_q, w.query_q, out);
  if (o.trace) {
    report_common_layers(s, out);
    const std::string layer = w.layer;
    const double items = static_cast<double>(std::max<std::uint64_t>(s.traced_items, 1));
    const double site_n = static_cast<double>(std::max<std::uint64_t>(s.traced_sites, 1));
    out.set(layer + ".add_batch_ns_per_item", tracer.total_ns(w.add_span).first / items, "ns");
    out.set(layer + ".serialize_us_per_site",
            tracer.total_ns(w.serialize_span).first * 1e-3 / site_n, "us");
    out.set(layer + ".sketch_bytes_per_site",
            static_cast<double>(s.traced_sketch_bytes) / site_n, "bytes");
    out.set("common.frame_encode_us_per_frame",
            tracer.total_ns("common.frame_encode").first * 1e-3 / site_n, "us");
  }
}

// ======================================================= oneshot-f0
//
// The paper's model: 32 sites with overlapping Zipf(1.1) streams, a
// WAL-on referee, and one 8-operand set expression as the query.

void run_oneshot(const Options& o, std::int64_t t_main, Tracer& tracer, Outcome& out) {
  constexpr std::size_t kSites = 32;
  const perfbench::StreamShape shape{.sites = kSites, .per_site = 250'000,
                                     .universe = 1u << 21, .alpha = 1.1,
                                     .private_share = 0.3};
  const EstimatorParams params = EstimatorParams::for_guarantee(kEps, kDelta, kHashSeed);
  std::vector<std::vector<std::uint64_t>> streams;
  double exact_union = 0.0;
  double exact_expr = 0.0;
  std::vector<std::uint8_t> reference_union;

  OneShot<F0Estimator> w;
  w.sites = kSites;
  w.queries = 20;
  w.query = "(site:0|site:1|site:2|site:3)-(site:4|site:5|site:6|site:7)";
  w.kind = PayloadKind::kF0Estimator;
  w.layer = "core";
  w.add_span = "core.add_batch";
  w.serialize_span = "core.serialize";
  w.make_site = [&] { return F0Estimator(params); };
  w.referee_args = [](const std::string& dir) {
    return std::vector<std::string>{"--sites", std::to_string(kSites), "--wal-dir", dir + "/wal",
                                    "--timeout-ms", "120000"};
  };
  w.prepare = [&]() -> const std::vector<std::vector<std::uint64_t>>& {
    streams = perfbench::make_streams(shape, o.seed);
    exact_union = static_cast<double>(sorted_distinct(streams, 0, kSites).size());
    const auto a = sorted_distinct(streams, 0, 4);
    const auto b = sorted_distinct(streams, 4, 8);
    std::vector<std::uint64_t> diff;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(diff));
    exact_expr = static_cast<double>(diff.size());
    // One estimator fed every stream back to back, label by label: the
    // coordinated-sampling property says the referee's merged union has
    // exactly these bytes.
    F0Estimator one(params);
    for (const auto& stream : streams) {
      for (const std::uint64_t x : stream) one.add(x);
    }
    reference_union = one.serialize();
    return streams;
  };
  w.check_answer = [&](const Json& answer, const std::string& tag) {
    out.check(within_dlrt_envelope(answer.num("estimate"), static_cast<int>(answer.num("level")),
                                   exact_expr),
              tag + ": /query estimate " + answer.at("estimate").text +
                  " outside the DLRT envelope of exact " + std::to_string(exact_expr));
  };
  w.check_union = [&](const Json& result, const Referee& ref, const std::string& tag) {
    const double estimate = result.num("estimate");
    out.check(std::fabs(estimate - exact_union) <= kEps * exact_union,
              tag + ": union estimate " + result.at("estimate").text +
                  " not within eps of exact " + std::to_string(exact_union));
    const Frame union_frame = frame_decode(read_bytes(ref.out_path));
    out.check(union_frame.payload == reference_union,
              tag + ": --out union bytes differ from one estimator fed every stream");
  };
  run_one_shot(o, t_main, tracer, out, w);
}

// ======================================================= freq-topk
//
// Heavy hitters: 16 sites draw from one shared Zipf(1.5) distribution (the
// setup of experiment E20) and push a FreqSketch each to
// `serve --kind freq`; top(40) is the query.

void run_freq(const Options& o, std::int64_t t_main, Tracer& tracer, Outcome& out) {
  constexpr std::size_t kSites = 16;
  constexpr std::size_t kTop = 40;     // entries per top() answer
  constexpr std::size_t kRecall = 20;  // the exact top-20 must be inside them (E20)
  const perfbench::StreamShape shape{.sites = kSites, .per_site = 1'000'000,
                                     .universe = 1u << 20, .alpha = 1.5,
                                     .private_share = 0.0};
  const FreqConfig config{.depth = 4, .width_log2 = 12, .heavy_capacity = 64, .seed = kHashSeed};
  std::vector<std::vector<std::uint64_t>> streams;
  std::unordered_map<std::uint64_t, std::uint64_t> exact_all;   // every site
  std::unordered_map<std::uint64_t, std::uint64_t> exact_last;  // the last site alone
  std::vector<std::uint64_t> exact_top;
  double reference_f2 = 0.0;
  const std::uint64_t labels = kSites * shape.per_site;
  auto count_in = [](const std::unordered_map<std::uint64_t, std::uint64_t>& m,
                     std::uint64_t label) {
    const auto it = m.find(label);
    return it == m.end() ? std::uint64_t{0} : it->second;
  };
  // Every reported interval must hold the exact count.
  auto check_intervals = [&](const Json& hitters, bool before_last, const std::string& what) {
    for (const Json& hh : hitters.items) {
      const std::uint64_t label = hh.u64("label");
      const std::uint64_t exact =
          count_in(exact_all, label) - (before_last ? count_in(exact_last, label) : 0);
      out.check(hh.u64("lower") <= exact && exact <= hh.u64("upper"),
                what + ": top() interval excludes the exact count of " + hh.at("label").text);
    }
  };

  OneShot<FreqSketch> w;
  w.sites = kSites;
  w.queries = 50;
  w.query = "top(" + std::to_string(kTop) + ")";
  w.kind = PayloadKind::kFreqSketch;
  w.layer = "freq";
  w.add_span = "freq.add_batch";
  w.serialize_span = "freq.serialize";
  w.query_q = 0.95;
  w.make_site = [&] { return FreqSketch(config); };
  w.referee_args = [](const std::string&) {
    return std::vector<std::string>{"--kind", "freq", "--sites", std::to_string(kSites), "--top",
                                    std::to_string(kTop), "--timeout-ms", "120000"};
  };
  w.prepare = [&]() -> const std::vector<std::vector<std::uint64_t>>& {
    streams = perfbench::make_streams(shape, o.seed);
    for (std::size_t i = 0; i < kSites; ++i) {
      for (const std::uint64_t x : streams[i]) {
        exact_all[x] += 1;
        if (i + 1 == kSites) exact_last[x] += 1;
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;  // (count, label)
    for (const auto& [label, count] : exact_all) ranked.emplace_back(count, label);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t k = 0; k < std::min(kRecall, ranked.size()); ++k) {
      exact_top.push_back(ranked[k].second);
    }
    FreqSketch one(config);  // every stream back to back, label by label
    for (const auto& stream : streams) {
      for (const std::uint64_t x : stream) one.add(x);
    }
    reference_f2 = one.f2();
    return streams;
  };
  w.check_answer = [&](const Json& answer, const std::string& tag) {
    // Asked before the last site's frame: the union of the other sites.
    out.check(answer.u64("f1") == labels - shape.per_site,
              tag + ": /query f1 " + answer.at("f1").text + " != labels observed");
    check_intervals(answer.at("hitters"), true, tag + " /query");
  };
  w.check_union = [&](const Json& result, const Referee&, const std::string& tag) {
    // F1 is exact; CountSketch merge is counter addition, so the union's
    // F2 equals one sketch fed every stream; E20's recall floor.
    out.check(result.u64("f1") == labels,
              tag + ": union f1 " + result.at("f1").text + " != " + std::to_string(labels));
    out.check(result.num("f2") == reference_f2,
              tag + ": union f2 " + result.at("f2").text + " != single-sketch f2 " +
                  std::to_string(reference_f2));
    check_intervals(result.at("heavy_hitters"), false, tag + " union");
    std::size_t hits = 0;
    for (const Json& hh : result.at("heavy_hitters").items) {
      hits += static_cast<std::size_t>(
          std::count(exact_top.begin(), exact_top.end(), hh.u64("label")));
    }
    const double recall = static_cast<double>(hits) / static_cast<double>(exact_top.size());
    out.check(recall >= 0.95, tag + ": top-" + std::to_string(kRecall) + " recall " +
                                  std::to_string(recall) + " < 0.95");
  };
  run_one_shot(o, t_main, tracer, out, w);
}

// ======================================================= live-deltas
//
// Continuous monitoring: 16 DeltaSiteSessions take turns in fixed chunks
// over one connection to `serve --continuous` (WAL off); each threshold
// crossing waits for its ack. An open-loop poller on a second connection
// asks /query for the union of four sites at a fixed rate. The round ends
// with a full-frame flush of every dirty site.

constexpr double kLiveRttQ = 0.95;
constexpr double kLiveQueryQ = 0.90;

// Open-loop poller: request k is due at start + k * period whatever the
// referee does; latency counts from the due time, lag is how late the
// request actually went out.
class Poller {
 public:
  Poller(std::uint16_t admin_port, std::string request, std::chrono::milliseconds period)
      : port_(admin_port), request_(std::move(request)), period_(period) {}
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;
  ~Poller() { stop(); }

  void start() {
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  bool inflight() const { return inflight_.load(std::memory_order_relaxed); }

  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> candidates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  void loop() {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0;; ++k) {
      const auto due = start + k * period_;
      std::this_thread::sleep_until(due);
      if (stop_.load()) return;
      const auto sent = std::chrono::steady_clock::now();
      inflight_.store(true, std::memory_order_relaxed);
      std::string body;
      try {
        body = admin_get(port_, request_);
      } catch (const std::exception&) {
        body = "error";
      }
      inflight_.store(false, std::memory_order_relaxed);
      const auto done = std::chrono::steady_clock::now();
      attempted += 1;
      lag_ms.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
      latency_ms.push_back(std::chrono::duration<double, std::milli>(done - due).count());
      if (body.rfind("error", 0) == 0) {
        failed += 1;
      } else {
        try {
          candidates.push_back(Json::parse(body).num("candidates"));
        } catch (const std::exception&) {
          failed += 1;
        }
      }
    }
  }

  std::uint16_t port_;
  std::string request_;
  std::chrono::milliseconds period_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> inflight_{false};
  std::thread thread_;
};

void run_live(const Options& o, std::int64_t t_main, Tracer& tracer, Outcome& out) {
  constexpr std::size_t kSites = 16;
  constexpr std::size_t kChunk = 1000;  // labels per site per turn
  constexpr double kGrowth = 0.5;       // the push --continuous default
  // 5 polls/s keeps the poller well below what the referee can answer
  // beside the pushes (at 10/s its backlog grew in slow spells).
  const auto period = std::chrono::milliseconds(200);
  // ~9.8k distinct labels per site: every sampler copy makes both of its
  // level raises (at 3600 and ~7200 distinct) and no third, so the frame
  // count per site does not jump between seeds.
  const perfbench::StreamShape shape{.sites = kSites, .per_site = 10'000,
                                     .universe = 1u << 20, .alpha = 0.6,
                                     .private_share = 0.5};
  const EstimatorParams params = EstimatorParams::for_guarantee(kEps, kDelta, kHashSeed);
  const std::string poll_expr = "site:0|site:1|site:2|site:3";
  std::string union_expr;
  for (std::size_t i = 0; i < kSites; ++i) {
    union_expr += (i ? "|site:" : "site:") + std::to_string(i);
  }
  const std::vector<std::string> referee_args = {"--continuous", "--sites",
                                                 std::to_string(kSites), "--timeout-ms",
                                                 "170000"};

  Samples s;
  const std::int64_t t_inputs = now_ns();
  const auto streams = perfbench::make_streams(shape, o.seed);
  const double exact_union = static_cast<double>(sorted_distinct(streams, 0, kSites).size());
  const std::uint64_t labels = kSites * shape.per_site;
  std::vector<double> lag_ms;
  std::uint64_t suppressed = 0, delta_frames = 0, delta_bytes = 0;

  const std::int64_t t_start = now_ns();
  run_rounds(
      o, tracer, t_start,
      [&] { return tails_supported(s, kLiveRttQ, kLiveQueryQ); },
      [&](std::size_t r) {
        const std::string tag = "r" + std::to_string(r);
        // The round's set-up: a fresh referee up and fresh site sessions.
        const std::int64_t t_setup = now_ns();
        Referee ref = start_referee(o, tag, referee_args);
        std::vector<DeltaSiteSession> sessions;
        sessions.reserve(kSites);
        for (std::size_t i = 0; i < kSites; ++i) sessions.emplace_back(params, kGrowth);
        if (r == 0) s.setup_s = cold_setup_s(t_main, t_inputs, t_setup);
        s.ready_ms.push_back(ref.ready_ms);
        const std::uint32_t round_span = tracer.begin("round", Tracer::kNone,
                                                      static_cast<std::uint32_t>(r));
        net::TcpTransport tx(kSites, transport_config(ref));
        Poller poller(ref.admin_port, query_request(poll_expr), period);
        std::uint64_t bad_acks = 0;
        std::uint64_t round_deltas = 0, round_delta_bytes = 0;

        auto transmit = [&](std::size_t i, bool full) {
          DeltaSiteSession& session = sessions[i];
          const auto site = static_cast<std::uint32_t>(i);
          DeltaSiteSession::Outgoing msg;
          {
            Tracer::Scope span(tracer, "distributed.delta_encode", site, session.epoch() + 1);
            msg = full ? session.next_full() : session.next_update();
          }
          Tracer::Scope frame_span(tracer, "site_frame", site, msg.epoch);
          std::vector<std::uint8_t> frame;
          {
            Tracer::Scope span(tracer, "common.frame_encode", site, msg.epoch);
            frame = frame_encode(
                {msg.is_delta ? PayloadKind::kF0Delta : PayloadKind::kF0Estimator, site, msg.epoch},
                msg.payload);
          }
          if (msg.is_delta) {
            round_deltas += 1;
            round_delta_bytes += frame.size();
          }
          const bool inflight = poller.inflight();
          const std::int64_t t = now_ns();
          net::PushAck ack;
          {
            Tracer::Scope span(tracer, "net.push", site, msg.epoch);
            ack = tx.send_with_ack(i, frame);
          }
          record_push(s, static_cast<double>(now_ns() - t) * 1e-3, inflight);
          out.attempted += 1;
          if (ack == net::PushAck::kAccepted) {
            session.delivered();
          } else {
            out.failed += 1;
            bad_acks += 1;
            session.lost();
          }
        };

        const std::int64_t t0 = now_ns();
        for (std::size_t off = 0; off < shape.per_site; off += kChunk) {
          const std::size_t n = std::min(kChunk, shape.per_site - off);
          for (std::size_t i = 0; i < kSites; ++i) {
            const std::uint64_t* chunk = streams[i].data() + off;
            const auto site = static_cast<std::uint32_t>(i);
            std::uint32_t add_span = tracer.begin("distributed.delta_add", site);
            for (std::size_t k = 0; k < n; ++k) {
              if (!sessions[i].add(chunk[k])) continue;
              tracer.end(add_span);
              transmit(i, false);
              add_span = tracer.begin("distributed.delta_add", site);
            }
            tracer.end(add_span);
          }
          // Every site has reported once after the first turn, so the
          // poller's operands exist from its first request on.
          if (off == 0) poller.start();
        }
        // The poller's last read finishes inside the measured window, then
        // the end-of-stream flush runs alone, so collect_s is the flush.
        poller.stop();
        const std::int64_t t_flush = now_ns();
        {
          Tracer::Scope flush(tracer, "flush");
          for (std::size_t i = 0; i < kSites; ++i) {
            if (sessions[i].dirty()) transmit(i, true);
          }
        }
        const std::int64_t t_end = now_ns();  // last flush frame acked
        tracer.end(round_span);

        s.loop_ns += static_cast<double>(t_end - t0);
        const double rate = static_cast<double>(labels) / secs(t_end - t0);
        if (tracer.enabled) {
          s.traced_items += labels;
          for (const auto& session : sessions) suppressed += session.suppressed();
          delta_frames += round_deltas;
          delta_bytes += round_delta_bytes;
        }
        s.site_rounds += kSites;
        s.query_ms.insert(s.query_ms.end(), poller.latency_ms.begin(), poller.latency_ms.end());
        close_round(s, tracer.enabled, secs(t_end - t0), rate, secs(t_end - t_flush), tag);
        s.query_candidates.insert(s.query_candidates.end(), poller.candidates.begin(),
                                  poller.candidates.end());
        lag_ms.insert(lag_ms.end(), poller.lag_ms.begin(), poller.lag_ms.end());
        out.attempted += poller.attempted;
        out.failed += poller.failed;

        // ---- checks: the referee rebuilt every site from deltas; the
        // client's sketches are live. Both must give the same answer.
        const Json remote = Json::parse(admin_get(ref.admin_port, query_request(union_expr)));
        const query::QueryResult local =
            query::run_query(union_expr, [&](const query::Expr& leaf) -> const F0Estimator* {
              return leaf.operand == query::OperandKind::kSite && leaf.id < kSites
                         ? &sessions[leaf.id].sketch()
                         : nullptr;
            });
        char printed[64];  // the /query JSON prints estimates with %.6g
        std::snprintf(printed, sizeof(printed), "%.6g", local.estimate);
        out.check(remote.at("estimate").text == printed &&
                      static_cast<int>(remote.num("level")) == local.level &&
                      static_cast<std::size_t>(remote.num("candidates")) == local.candidates,
                  tag + ": referee union /query " + remote.at("estimate").text +
                      " != client-side run_query " + std::to_string(local.estimate));
        out.check(std::fabs(local.estimate - exact_union) <= kEps * exact_union,
                  tag + ": union estimate " + std::to_string(local.estimate) +
                      " not within eps of exact " + std::to_string(exact_union));
        out.check(bad_acks == 0, tag + ": " + std::to_string(bad_acks) + " frames acked R or Q");

        // The --continuous referee runs to its deadline, and on SIGTERM
        // prints nothing: its totals come from /metrics.json before the
        // stop.
        const Registry reg(Json::parse(admin_get(ref.admin_port, "GET /metrics.json")));
        ::kill(ref.pid, SIGTERM);
        const perfbench::Exit ex = perfbench::reap(ref.pid);
        s.rss_mb.push_back(ex.peak_rss_mb);
        const ChannelStats wire = tx.stats();
        s.frames += wire.messages;
        s.bytes += wire.total_bytes;
        const double accepted = reg.value("ustream_referee_frames_accepted_total");
        const double bytes_in = reg.value("ustream_referee_bytes_in_total");
        s.referee_frames += static_cast<std::uint64_t>(accepted);
        s.referee_bytes_in += static_cast<std::uint64_t>(bytes_in);
        s.frames_resync +=
            static_cast<std::uint64_t>(reg.value("ustream_referee_frames_resync_total"));
        check_wire_totals(out, wire, accepted, std::nullopt, bytes_in, tag);
        s.decode_ns += reg.sum("ustream_frame_decode_ns");
        s.decode_count += reg.count("ustream_frame_decode_ns");
        s.server_eval_ms.push_back(mean_ms(reg, "ustream_query_latency_ns"));
        std::filesystem::remove_all(ref.dir);
      });

  report_end_to_end(s, kLiveRttQ, kLiveQueryQ, out);
  if (o.trace) {
    report_common_layers(s, out);
    const double items = static_cast<double>(std::max<std::uint64_t>(s.traced_items, 1));
    const auto [encode_ns, encodes] = tracer.total_ns("distributed.delta_encode");
    const double frames = static_cast<double>(std::max<std::uint64_t>(encodes, 1));
    out.set("distributed.delta_add_ns_per_item",
            tracer.total_ns("distributed.delta_add").first / items, "ns");
    out.set("distributed.delta_encode_us_per_frame", encode_ns * 1e-3 / frames, "us");
    out.set("distributed.suppressed_per_item", static_cast<double>(suppressed) / items, "ratio");
    out.set("distributed.delta_bytes_per_frame",
            delta_frames ? static_cast<double>(delta_bytes) / static_cast<double>(delta_frames)
                         : 0.0,
            "bytes");
    out.set("common.frame_encode_us_per_frame",
            tracer.total_ns("common.frame_encode").first * 1e-3 / frames, "us");
    out.set("bench.poller_lag_ms", median(lag_ms), "ms");
  }
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // The referees' spawner is forked first, while this process is small
    // (see proc.h); set-up time counts from after it.
    perfbench::start_spawner();
    const std::int64_t t_main = now_ns();
    const Options o = parse_options(argc, argv);
    Tracer tracer;
    Outcome out;
    if (o.workload == "oneshot-f0") {
      run_oneshot(o, t_main, tracer, out);
    } else if (o.workload == "live-deltas") {
      run_live(o, t_main, tracer, out);
    } else if (o.workload == "freq-topk") {
      run_freq(o, t_main, tracer, out);
    } else {
      throw std::runtime_error("unknown workload " + o.workload);
    }
    // A traced run reports the per-layer metrics and the span table; an
    // untraced run reports the end-to-end metrics.
    static const char* const kEndToEnd[] = {
        "setup_s",       "items_per_s",         "collect_s",
        "push_rtt_p50_us", "query_mean_ms",     "wire_bytes_per_site",
        "wire_frames_per_site", "referee_peak_rss_mb"};
    std::map<std::string, Metric> shown;
    if (o.trace) {
      fill_layer_defaults(out);
      for (const auto& [name, m] : out.metrics) {
        if (std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) == std::end(kEndToEnd)) {
          shown[name] = m;
        }
      }
      std::printf("%-32s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
      for (const auto& [name, row] : tracer.layer_table()) {
        std::printf("%-32s %10llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms);
      }
      if (!o.trace_out.empty() && !tracer.write(o.trace_out)) {
        std::fprintf(stderr, "could not write %s\n", o.trace_out.c_str());
      }
    } else {
      for (const char* name : kEndToEnd) shown[name] = out.metrics.at(name);
    }
    for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
    for (const auto& [name, m] : shown) {
      std::printf("%-40s %18s %s\n", name.c_str(), format_number(m.value).c_str(),
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : shown) {
      json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
              format_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    perfbench::shutdown();
    return 0;
  } catch (const std::exception& e) {
    perfbench::shutdown();
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
