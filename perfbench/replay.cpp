// perfbench_replay — the benchmark's traced run.
//
// Usage:
//   perfbench_replay <capture_batch|pop_live|ddos_churn> <input> <links.txt>
//                    <workdir> <timers 0|1> <checkpoint_every>
//
// Replays one workload's tool invocations (fbm_analyze, fbm_live, then
// fbm_query over the stores they wrote) through the library's public
// functions, with a span around every call into a layer. What the tools
// would print goes to <workdir>/ingest.out and <workdir>/query.out, so the
// caller can check the replay renders byte-identical reports; the per-layer
// metrics go to stdout as one JSON object.
//
// A layer's self time is its span minus the spans it contains (the report
// sink runs inside push/finish and is charged to render, write and store).
// With timers 0 no span reads the clock: only the ingest and whole-run
// walls are taken, so the difference between a timed and an untimed run is
// the tracing overhead.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "agg/agg.hpp"
#include "api/api.hpp"
#include "ckpt/checkpoint.hpp"
#include "live/live.hpp"
#include "net/lpm.hpp"
#include "obs/catalog.hpp"
#include "store/report_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

enum Layer {
  kTraceRead,
  kApiPush,
  kApiFinish,
  kEngineAttach,
  kEnginePush,
  kEngineFinish,
  kLivePush,
  kLiveFinish,
  kCoreRender,
  kIoWrite,
  kStoreAppend,
  kStoreLoad,
  kStoreScan,
  kCkptSave,
  kCkptWrite,
  kLayers
};

constexpr std::array<const char*, kLayers> kLayerNames{
    "trace.read_s",    "api.push_s",      "api.finish_s",  "engine.attach_s",
    "engine.push_s",   "engine.finish_s", "live.push_s",   "live.finish_s",
    "core.render_s",   "io.write_s",      "store.append_s", "store.load_s",
    "store.scan_s",    "ckpt.save_s",     "ckpt.write_s"};

/// Self-time ledger over nested spans.
class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}

  /// One span: charges its duration, minus its children's, to `layer`.
  class Span {
   public:
    Span(Ledger& ledger, Layer layer) : ledger_(ledger) {
      if (ledger_.on_) ledger_.open(layer);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (ledger_.on_) ledger_.close();
    }

   private:
    Ledger& ledger_;
  };

  [[nodiscard]] double self(Layer l) const { return self_[l]; }
  [[nodiscard]] double total_self() const {
    double s = 0.0;
    for (double v : self_) s += v;
    return s;
  }

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  void open(Layer layer) { stack_.push_back({layer, Clock::now(), 0.0}); }
  void close() {
    const Open o = stack_.back();
    stack_.pop_back();
    const double d =
        std::chrono::duration<double>(Clock::now() - o.start).count();
    self_[o.layer] += d - o.child_s;
    if (!stack_.empty()) stack_.back().child_s += d;
  }

  bool on_;
  std::vector<Open> stack_;
  std::array<double, kLayers> self_{};
};

/// Counts the run reports besides the span times.
struct Tally {
  std::uint64_t packets = 0;
  std::uint64_t skipped = 0;
  std::uint64_t windows = 0;
  std::uint64_t alerts = 0;
  std::uint64_t render_records = 0;
  std::uint64_t render_bytes = 0;
  std::uint64_t appends = 0;
  std::uint64_t ckpt_writes = 0;
  std::uint64_t ckpt_bytes = 0;
  double table_active_max = 0.0;
  double probe_sum = 0.0;
  std::uint64_t probe_samples = 0;
  std::vector<std::uint32_t> dsts;  ///< every destination, for net.lpm_s
};

struct Run {
  Ledger ledger;
  Tally tally;
  std::FILE* out = nullptr;  ///< what the tool prints to stdout
  const char* table = "live";  ///< obs flow-table gauge family

  explicit Run(bool timers) : ledger(timers) {}

  /// The tool's printf("%s\n") + fflush for one rendered report.
  void print(const std::string& line, bool flush) {
    Ledger::Span s(ledger, kIoWrite);
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
    if (flush) std::fflush(out);
  }
  void rendered(const std::string& text) {
    ++tally.render_records;
    tally.render_bytes += text.size() + 1;
  }
  void read(const fbm::net::PacketBatch& batch) {
    tally.packets += batch.size();
    for (const auto& t : batch.tuples) tally.dsts.push_back(t.dst.value());
  }
  /// Samples the flow-table gauges once per pushed batch.
  void sample_table() {
    const double active = fbm::obs::flow_table_active(table).value();
    tally.table_active_max = std::max(tally.table_active_max, active);
    tally.probe_sum += fbm::obs::flow_table_avg_probe(table).value();
    ++tally.probe_samples;
  }
};

std::uint64_t size_of(const std::filesystem::path& p) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(p, ec);
  return ec ? 0 : n;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ------------------------------------------------------------- ingests ---

/// fbm_analyze <pcap> --interval 30 --json --store <store> [--prefix24]
void analyze(Run& run, const std::string& input, bool prefix24,
             const std::filesystem::path& store_path) {
  using namespace fbm;
  run.table = "pipeline";
  const double interval_s = 30.0;
  api::AnalysisConfig config;
  config
      .flow_definition(prefix24 ? api::FlowDefinition::prefix24
                                : api::FlowDefinition::five_tuple)
      .interval_s(interval_s)
      .timeout_s(60.0)
      .delta_s(measure::kPaperDelta)
      .epsilon(0.01)
      .min_flows(10)
      .threads(1);
  std::vector<api::AnalysisReport> reports;
  api::AnalysisPipeline pipeline(config);
  pipeline.set_report_sink(
      [&](api::AnalysisReport&& r) { reports.push_back(std::move(r)); });

  api::TraceSourcePtr source;
  {
    Ledger::Span s(run.ledger, kTraceRead);
    source = api::open_trace(input);
  }
  net::PacketBatch batch;
  batch.reserve(config.batch_packets());
  for (;;) {
    std::size_t n = 0;
    {
      Ledger::Span s(run.ledger, kTraceRead);
      n = source->next_batch(batch, config.batch_packets());
    }
    if (n == 0) break;
    run.read(batch);
    {
      Ledger::Span s(run.ledger, kApiPush);
      pipeline.push_batch(batch);
    }
    run.sample_table();
  }
  {
    Ledger::Span s(run.ledger, kApiFinish);
    pipeline.finish();
  }
  if (const auto* pcap = dynamic_cast<api::PcapTraceSource*>(source.get())) {
    run.tally.skipped += pcap->skipped();
  }
  {
    Ledger::Span s(run.ledger, kStoreAppend);
    store::StoreWriter writer(store_path);
    for (const auto& r : reports) {
      writer.append(store::from_analysis(r, interval_s));
      ++run.tally.appends;
    }
  }
  std::string text;
  {
    Ledger::Span s(run.ledger, kCoreRender);
    text = api::to_json(pipeline.summary(), reports);
  }
  run.rendered(text);
  run.print(text, false);
}

fbm::live::LiveConfig live_config(double window, double stride) {
  using namespace fbm;
  live::LiveConfig config;
  config.window_s = window;
  config.stride_s = stride;
  config.band_k_sigma = 3.0;
  config.forecast_max_order = 8;
  config.alert_min_consecutive = 1;
  config.alert_warmup_windows = 0;
  config.analysis.flow_definition(api::FlowDefinition::five_tuple)
      .timeout_s(60.0)
      .delta_s(measure::kPaperDelta)
      .epsilon(0.01);
  return config;
}

void count_window(Run& run, const fbm::live::WindowReport& r) {
  ++run.tally.windows;
  if (r.anomaly.alert) ++run.tally.alerts;
}

/// fbm_live <fbmt> --window 10 --stride 2 --json --store <store>
void live_single(Run& run, const std::string& input,
                 const std::filesystem::path& store_path) {
  using namespace fbm;
  const live::LiveConfig config = live_config(10.0, 2.0);
  live::WindowedEstimator estimator(config);
  std::unique_ptr<store::StoreWriter> writer;
  {
    Ledger::Span s(run.ledger, kStoreAppend);
    writer = std::make_unique<store::StoreWriter>(store_path);
  }
  estimator.set_window_sink([&](live::WindowReport&& r) {
    count_window(run, r);
    std::string line;
    {
      Ledger::Span s(run.ledger, kCoreRender);
      line = live::to_jsonl(r);
    }
    run.rendered(line);
    run.print(line, true);
    Ledger::Span s(run.ledger, kStoreAppend);
    writer->append({0, false, "", std::move(r)});
    ++run.tally.appends;
  });

  api::TraceSourcePtr source;
  {
    Ledger::Span s(run.ledger, kTraceRead);
    source = api::open_trace(input);
  }
  const std::size_t cap = config.analysis.batch_packets();
  net::PacketBatch batch;
  batch.reserve(cap);
  for (;;) {
    std::size_t n = 0;
    {
      Ledger::Span s(run.ledger, kTraceRead);
      n = source->next_batch(batch, cap);
    }
    if (n == 0) break;
    run.read(batch);
    {
      Ledger::Span s(run.ledger, kLivePush);
      estimator.push_batch(batch);
    }
    run.sample_table();
  }
  Ledger::Span s(run.ledger, kLiveFinish);
  estimator.finish();
}

/// fbm_live <fbmt> --link ... --window 1 --json --store <store>
///          --checkpoint <ckpt> --checkpoint-every N
void live_engine(Run& run, const std::string& input,
                 const std::vector<std::string>& links,
                 const std::filesystem::path& store_path,
                 const std::filesystem::path& ckpt_path,
                 std::uint64_t checkpoint_every) {
  using namespace fbm;
  engine::EngineConfig config;
  config.mode = engine::EngineMode::live;
  config.live = live_config(1.0, 0.0);
  config.threads = 1;

  std::uint64_t windows = 0;
  engine::Engine eng(config);
  std::vector<engine::LinkSpec> specs;
  for (const auto& text : links) specs.push_back(engine::parse_link_spec(text));
  agg::PartialMeta meta = agg::PartialMeta::from_live(config.live);
  meta.engine = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    meta.links.push_back({static_cast<std::uint32_t>(i), specs[i].name});
  }
  {
    Ledger::Span s(run.ledger, kEngineAttach);
    for (auto& spec : specs) (void)eng.attach(std::move(spec));
  }
  std::unique_ptr<store::StoreWriter> writer;
  {
    Ledger::Span s(run.ledger, kStoreAppend);
    writer = std::make_unique<store::StoreWriter>(store_path);
  }
  eng.set_report_sink([&](engine::LinkReport&& r) {
    count_window(run, *r.window);
    std::string line;
    {
      Ledger::Span s(run.ledger, kCoreRender);
      line = engine::to_jsonl(r);
    }
    run.rendered(line);
    run.print(line, true);
    Ledger::Span s(run.ledger, kStoreAppend);
    writer->append({static_cast<std::uint32_t>(r.link), true, r.name,
                    std::move(*r.window)});
    ++run.tally.appends;
    ++windows;
  });

  api::TraceSourcePtr source;
  {
    Ledger::Span s(run.ledger, kTraceRead);
    source = api::open_trace(input);
  }
  const std::size_t cap = config.batch_packets;
  net::PacketBatch batch;
  batch.reserve(cap);
  std::uint64_t last_ckpt = 0;
  for (;;) {
    std::size_t n = 0;
    {
      Ledger::Span s(run.ledger, kTraceRead);
      n = source->next_batch(batch, cap);
    }
    if (n == 0) break;
    run.read(batch);
    {
      Ledger::Span s(run.ledger, kEnginePush);
      eng.push_batch(batch);
    }
    run.sample_table();
    if (windows - last_ckpt >= checkpoint_every) {
      engine::EngineState state;
      {
        Ledger::Span s(run.ledger, kCkptSave);
        state = eng.save_state();
      }
      {
        Ledger::Span s(run.ledger, kCkptWrite);
        ckpt::write_checkpoint(ckpt_path, meta, state);
      }
      ++run.tally.ckpt_writes;
      run.tally.ckpt_bytes += size_of(ckpt_path);
      last_ckpt = windows;
    }
  }
  Ledger::Span s(run.ledger, kEngineFinish);
  eng.finish();
}

/// fbm_query <store>
void query(Run& run, const std::filesystem::path& store_path) {
  using namespace fbm;
  std::unique_ptr<store::StoreReader> reader;
  {
    Ledger::Span s(run.ledger, kStoreLoad);
    reader = std::make_unique<store::StoreReader>(store_path);
  }
  std::vector<store::StoredReport> records;
  {
    Ledger::Span s(run.ledger, kStoreScan);
    records = reader->scan(store::ScanOptions{});
  }
  for (const auto& r : records) {
    std::string line;
    {
      Ledger::Span s(run.ledger, kCoreRender);
      line = r.jsonl();
    }
    run.rendered(line);
    run.print(line, false);
  }
}

/// RoutingTable::lookup_batch over every destination the run read, with
/// the POP link prefixes; timed on its own, outside the ledger.
double time_lpm(const std::vector<std::string>& links,
                const std::vector<std::uint32_t>& dsts) {
  using namespace fbm;
  net::RoutingTable table;
  std::uint32_t id = 0;
  for (const auto& text : links) {
    const auto spec = engine::parse_link_spec(text);
    if (const auto* p = std::get_if<engine::MatchPrefixes>(&spec.rule)) {
      for (const auto& prefix : p->prefixes) table.insert(prefix, id);
    }
    ++id;
  }
  std::vector<std::uint32_t> out(dsts.size());
  const auto t0 = Clock::now();
  table.lookup_batch(dsts.data(), dsts.size(), out.data(), ~0u);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::uint64_t hits = 0;
  for (auto v : out) hits += v != ~0u;
  if (hits > dsts.size()) std::abort();  // keep the lookups observable
  return s;
}

/// WindowedEstimator alone over the whole capture with the engine's 1 s
/// windows (what the match-all link sees), reports dropped; timed on its
/// own, outside the ledger. Gives the live layer's push and finish times on
/// pop_live, where the sessions' live time is inside engine.push_s.
std::pair<double, double> time_live(const std::string& input) {
  using namespace fbm;
  const live::LiveConfig config = live_config(1.0, 0.0);
  live::WindowedEstimator estimator(config);
  std::uint64_t windows = 0;
  estimator.set_window_sink([&](live::WindowReport&&) { ++windows; });
  const api::TraceSourcePtr source = api::open_trace(input);
  const std::size_t cap = config.analysis.batch_packets();
  net::PacketBatch batch;
  batch.reserve(cap);
  Clock::duration push{};
  while (source->next_batch(batch, cap) != 0) {
    const auto t0 = Clock::now();
    estimator.push_batch(batch);
    push += Clock::now() - t0;
  }
  const auto t0 = Clock::now();
  estimator.finish();
  const auto finish = Clock::now() - t0;
  if (windows == 0) std::abort();  // keep the reports observable
  return {std::chrono::duration<double>(push).count(),
          std::chrono::duration<double>(finish).count()};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: perfbench_replay <workload> <input> <links.txt> "
                 "<workdir> <timers 0|1> <checkpoint_every>\n");
    return 2;
  }
  const std::string workload = argv[1];
  const std::string input = argv[2];
  const std::filesystem::path workdir = argv[4];
  const bool timers = std::string(argv[5]) == "1";
  const std::uint64_t checkpoint_every = std::strtoull(argv[6], nullptr, 10);
  try {
    using namespace fbm;
    const auto links = read_lines(argv[3]);
    std::vector<std::filesystem::path> stores;
    for (const auto& name : {"replay_a.fbms", "replay_b.fbms",
                             "replay.ckpt", "ingest.out", "query.out"}) {
      std::filesystem::remove(workdir / name);
    }
    Run run(timers);
    run.out = std::fopen((workdir / "ingest.out").c_str(), "w");
    if (run.out == nullptr) throw std::runtime_error("cannot write ingest.out");

    const auto t0 = Clock::now();
    if (workload == "capture_batch") {
      stores = {workdir / "replay_a.fbms", workdir / "replay_b.fbms"};
      analyze(run, input, false, stores[0]);
      analyze(run, input, true, stores[1]);
    } else if (workload == "pop_live") {
      stores = {workdir / "replay_a.fbms"};
      live_engine(run, input, links, stores[0], workdir / "replay.ckpt",
                  checkpoint_every);
    } else if (workload == "ddos_churn") {
      stores = {workdir / "replay_a.fbms"};
      live_single(run, input, stores[0]);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
      return 2;
    }
    std::fflush(run.out);
    const auto t1 = Clock::now();
    std::fclose(run.out);

    run.out = std::fopen((workdir / "query.out").c_str(), "w");
    if (run.out == nullptr) throw std::runtime_error("cannot write query.out");
    const auto t2 = Clock::now();
    for (const auto& s : stores) query(run, s);
    std::fflush(run.out);
    const auto t3 = Clock::now();
    std::fclose(run.out);

    const auto secs = [](Clock::duration d) {
      return std::chrono::duration<double>(d).count();
    };
    const double ingest_wall = secs(t1 - t0);
    const double wall = ingest_wall + secs(t3 - t2);
    std::uint64_t store_bytes = 0;
    for (const auto& s : stores) store_bytes += size_of(s) - 16;
    const Tally& t = run.tally;

    std::printf("{\"timers\": %d, \"ingest_wall_s\": %.9g, "
                "\"ledger.wall_s\": %.9g",
                timers ? 1 : 0, ingest_wall, wall);
    const bool live_apart = workload == "pop_live";
    for (int l = 0; l < kLayers; ++l) {
      if (live_apart && (l == kLivePush || l == kLiveFinish)) continue;
      std::printf(", \"%s\": %.9g", kLayerNames[l],
                  run.ledger.self(static_cast<Layer>(l)));
    }
    std::printf(", \"ledger.self_s\": %.9g", run.ledger.total_self());
    std::printf(", \"trace.packets\": %llu, \"trace.skipped\": %llu",
                static_cast<unsigned long long>(t.packets),
                static_cast<unsigned long long>(t.skipped));
    std::printf(", \"live.windows\": %llu, \"live.alerts\": %llu",
                static_cast<unsigned long long>(t.windows),
                static_cast<unsigned long long>(t.alerts));
    std::printf(", \"api.fit_s\": %.9g, \"live.forecast_s\": %.9g",
                obs::stage_seconds(obs::kStageFit).sum(),
                obs::stage_seconds(obs::kStageForecast).sum());
    std::printf(", \"flow.flows_emitted\": %llu, "
                "\"flow.flows_discarded\": %llu",
                static_cast<unsigned long long>(obs::flows_emitted().value()),
                static_cast<unsigned long long>(
                    obs::flows_discarded().value()));
    std::printf(", \"flow.table_probe_avg\": %.9g, "
                "\"flow.table_active_max\": %.9g",
                t.probe_samples ? t.probe_sum / t.probe_samples : 0.0,
                t.table_active_max);
    std::printf(", \"core.render_records\": %llu, \"core.render_bytes\": %llu",
                static_cast<unsigned long long>(t.render_records),
                static_cast<unsigned long long>(t.render_bytes));
    std::printf(", \"store.appends\": %llu, \"store.bytes_per_record\": %.9g",
                static_cast<unsigned long long>(t.appends),
                t.appends ? static_cast<double>(store_bytes) / t.appends : 0.0);
    std::printf(", \"ckpt.writes\": %llu, \"ckpt.bytes\": %llu",
                static_cast<unsigned long long>(t.ckpt_writes),
                static_cast<unsigned long long>(t.ckpt_bytes));
    // The passes timed on their own run last, after every obs read above.
    if (live_apart) {
      const auto [push_s, finish_s] = time_live(input);
      std::printf(", \"live.push_s\": %.9g, \"live.finish_s\": %.9g", push_s,
                  finish_s);
    }
    std::printf(", \"net.lpm_s\": %.9g}\n", time_lpm(links, t.dsts));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
  return 0;
}
