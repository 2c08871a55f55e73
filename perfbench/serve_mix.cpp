// serve_mix: an in-process serve::Server with 2 executor workers, a
// write-ahead journal in the scratch directory (every record appended
// under the server lock, one fsync per kGroupCommit records), and the
// default cache and memo capacities.  Three tenants (weights 1, 1, 2) each
// run a closed-loop ServeHandle client: the next request goes out when the
// previous one's `done` event arrives.  A request is a seeded draw of 1-4
// distinct series from rt::figure_matrix("all"), limited to series the
// study evaluated (rt::unavailable_failure empty).
//
// Why: the serve layer (admission, fair-share dispatch, memo/coalesced
// reads, journal fsync writes under the server lock) and rt/sim pricing do
// all the work; no solver runs.  Reads and writes interleave, so a change
// that trades one for the other shows.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/rng.hpp"
#include "decomp/partition.hpp"
#include "harness.hpp"
#include "rt/campaign.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace hemo;

namespace {

constexpr int kWorkers = 2;
constexpr int kMaxSeriesPerRequest = 4;
// Not 1 (strict): with an fsync per record, or per 32, the workload
// measures the host disk's fsync latency, which swung throughput 5.6x
// (strict) and 2.7x (32) between runs.  Every record is still encoded
// and appended under the server lock.
constexpr std::size_t kGroupCommit = 1024;
struct Tenant {
  const char* name;
  double weight;
};
constexpr Tenant kTenants[] = {{"t0", 1.0}, {"t1", 1.0}, {"t2", 2.0}};

std::vector<rt::SeriesSpec> series_pool() {
  std::vector<rt::SeriesSpec> pool;
  std::map<std::string, bool> seen;
  for (const rt::SeriesSpec& s : rt::figure_matrix("all")) {
    if (rt::unavailable_failure(s).has_value()) continue;
    if (seen.emplace(rt::series_label(s), true).second) pool.push_back(s);
  }
  return pool;
}

std::string series_csv(const rt::SeriesSpec& spec,
                       std::vector<rt::PointResult> points) {
  rt::CampaignResult result;
  result.name = "check";
  result.series.push_back({spec, std::move(points)});
  std::ostringstream os;
  rt::write_campaign_csv(result, os);
  return os.str();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when two results print the same campaign CSV row: every field
/// write_campaign_csv reads is equal, doubles bit for bit.
bool same_csv_fields(const rt::PointResult& a, const rt::PointResult& b) {
  if (a.schedule.devices != b.schedule.devices ||
      a.schedule.size_multiplier != b.schedule.size_multiplier ||
      a.attempts != b.attempts || a.ok() != b.ok() ||
      a.shrink.has_value() != b.shrink.has_value() ||
      a.sdc.has_value() != b.sdc.has_value())
    return false;
  if (!a.ok())
    return a.failure->timed_out == b.failure->timed_out &&
           a.failure->message == b.failure->message;
  if (a.shrink &&
      (a.shrink->survivor_count != b.shrink->survivor_count ||
       a.shrink->failed_ranks != b.shrink->failed_ranks ||
       a.shrink->recovery_step != b.shrink->recovery_step))
    return false;
  if (a.sdc && (a.sdc->detected != b.sdc->detected ||
                a.sdc->false_positives != b.sdc->false_positives ||
                a.sdc->quarantines != b.sdc->quarantines))
    return false;
  return same_bits(a.sim.mflups, b.sim.mflups) &&
         same_bits(a.sim.iteration_s, b.sim.iteration_s) &&
         same_bits(a.prediction.mflups, b.prediction.mflups);
}

/// Per-window tallies shared by the client threads.  Every delivered
/// series is compared with the first delivery of the same series, field
/// by field (cheap enough to sit in the closed loop); the first
/// deliveries are checked as campaign CSV against run_campaign after the
/// window.  Memory stays bounded by the pool size.
struct Tally {
  Clock::time_point start = Clock::now();  // set before clients run
  std::mutex mu;
  std::vector<double> latency_ms;
  std::vector<double> end_s;       // request completion, window time
  std::vector<double> point_count;
  std::map<std::size_t, std::vector<rt::PointResult>> first;
  std::int64_t series_checked = 0;
  std::int64_t series_mismatched = 0;
  std::int64_t requests = 0;
  std::int64_t rejected = 0;
  std::int64_t points = 0;
  std::int64_t coalesced_points = 0;
  std::int64_t failed_points = 0;
  std::uint64_t max_queued = 0;
};

/// Submits one request, drains its events until `done` and tallies it.
void one_request(serve::ServeHandle& handle, serve::Server& server,
                 const std::vector<rt::SeriesSpec>& pool,
                 const std::vector<std::size_t>& picks, bool sample_queue,
                 Tally& tally) {
  Span request("serve:request");
  std::vector<rt::SeriesSpec> series;
  for (const std::size_t p : picks) series.push_back(pool[p]);
  std::vector<std::vector<rt::PointResult>> got;  // [series][point]
  for (const std::size_t p : picks)
    got.emplace_back(
        sys::piecewise_schedule(sys::system_spec(pool[p].system).max_devices)
            .size());
  std::int64_t points = 0, coalesced = 0, failed = 0;

  const auto t0 = Clock::now();
  serve::Server::SubmitOutcome outcome;
  {
    Span span("serve:Server::submit");
    outcome = handle.submit("mix", series);
  }
  if (!outcome.admitted) {
    std::lock_guard<std::mutex> lock(tally.mu);
    ++tally.requests;
    ++tally.rejected;
    return;
  }
  bool done = false;
  auto consume = [&](const serve::Event& event) {
    if (event.kind == serve::Event::Kind::kPoint) {
      got.at(event.series_index).at(event.point_index) = event.result;
      ++points;
      coalesced += event.coalesced;
      failed += !event.result.ok();
    } else if (event.kind == serve::Event::Kind::kDone ||
               event.kind == serve::Event::Kind::kRejected ||
               event.kind == serve::Event::Kind::kDeadlineExceeded) {
      done = true;
    }
  };
  auto next = [&] {
    const std::optional<serve::Event> event = handle.next_event();
    if (!event) throw std::runtime_error("serve_mix: no event in 10 s");
    consume(*event);
  };
  {
    Span wait("serve:await_first_point");
    while (!done && points == 0) next();
  }
  {
    Span wait("serve:await_done");
    while (!done) next();
  }
  const double ms = seconds_since(t0) * 1e3;
  const double end_s = seconds_since(tally.start);
  std::uint64_t queued = 0;
  if (sample_queue) {
    Span span("serve:Server::stats");
    queued = server.stats().queued;
  }
  std::lock_guard<std::mutex> lock(tally.mu);
  for (std::size_t s = 0; s < picks.size(); ++s) {
    const auto [it, first] = tally.first.emplace(picks[s], got[s]);
    ++tally.series_checked;
    if (!first)
      tally.series_mismatched += !std::equal(
          it->second.begin(), it->second.end(), got[s].begin(),
          got[s].end(), same_csv_fields);
  }
  ++tally.requests;
  tally.latency_ms.push_back(ms);
  tally.end_s.push_back(end_s);
  tally.point_count.push_back(static_cast<double>(points));
  tally.points += points;
  tally.coalesced_points += coalesced;
  tally.failed_points += failed;
  tally.max_queued = std::max(tally.max_queued, queued);
}

/// Closed-loop clients, one per tenant, for `seconds`.  Returns the wall
/// time until the last in-flight request finished.
double run_clients(serve::Server& server, const std::vector<rt::SeriesSpec>& pool,
                   std::uint64_t seed, double seconds, bool sample_queue,
                   Tally& tally) {
  const auto t0 = Clock::now();
  tally.start = t0;
  std::vector<std::thread> clients;
  std::vector<std::string> errors(std::size(kTenants));
  for (std::size_t c = 0; c < std::size(kTenants); ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::ServeHandle handle(server, kTenants[c].name);
        SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + c + 1);
        while (seconds_since(t0) < seconds) {
          const std::size_t k = 1 + rng.next_below(kMaxSeriesPerRequest);
          std::vector<std::size_t> picks;
          while (picks.size() < k) {
            const std::size_t p = rng.next_below(pool.size());
            if (std::find(picks.begin(), picks.end(), p) == picks.end())
              picks.push_back(p);
          }
          one_request(handle, server, pool, picks, sample_queue, tally);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error(e);
  return seconds_since(t0);
}

}  // namespace

int run_serve_mix(const Args& args, Report& report) {
  const std::vector<rt::SeriesSpec> pool = series_pool();
  report.op_name = "request (submit to done)";
  report.work_unit = "point event";
  report.tail_percentile = 99.0;
  report.env_num["threads"] = kWorkers;
  report.env_num["clients"] = static_cast<double>(std::size(kTenants));
  report.env_num["series_pool"] = static_cast<double>(pool.size());

  const std::string wal =
      (std::filesystem::path(args.scratch_dir) / "serve.wal").string();
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(args.trace);
  const int setup_reps = args.smoke ? 1 : 3;

  const double rss_before = rss_mb();
  std::unique_ptr<serve::Server> server;
  auto warm = std::make_unique<Tally>();
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    std::filesystem::remove(wal);
    warm = std::make_unique<Tally>();
    const auto t0 = Clock::now();
    Span span("setup");
    serve::ServeOptions options;
    options.workers = kWorkers;
    serve::JournalOptions journal;
    journal.path = wal;
    journal.group_commit = kGroupCommit;
    options.journal = journal;
    {
      Span construct("serve:Server::Server");
      server = std::make_unique<serve::Server>(options);
      for (const Tenant& t : kTenants) {
        serve::TenantConfig config;
        config.weight = t.weight;
        if (auto error = server->configure_tenant(t.name, config))
          throw std::runtime_error("configure_tenant: " + *error);
      }
    }
    // One request per workload kind fills the artifact cache (cold
    // voxelizations and decompositions happen here, not in the window).
    serve::ServeHandle handle(*server, "warmup");
    for (const rt::WorkloadKind kind : rt::kAllWorkloads) {
      for (std::size_t p = 0; p < pool.size(); ++p) {
        if (pool[p].workload != kind) continue;
        Span warmup("serve:warmup_request");
        one_request(handle, *server, pool, {p}, false, *warm);
        break;
      }
    }
    report.setup_s.push_back(seconds_since(t0));
  }
  tracer.set_enabled(false);

  // The warmed server's resident growth: artifact cache, memo, queues.
  report.env_num["working_set_bytes"] = (rss_mb() - rss_before) * 1048576.0;

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  Tally untraced;
  report.window_s = run_clients(*server, pool, args.seed, window_s, false, untraced);
  report.op_ms = untraced.latency_ms;
  report.op_end_s = untraced.end_s;
  report.op_work = untraced.point_count;
  report.work_items = static_cast<double>(untraced.points);

  Tally traced;
  if (args.trace) {
    tracer.set_enabled(true);
    Span span("window");
    const serve::ServeStats s0 = server->stats();
    report.traced_window_s =
        run_clients(*server, pool, args.seed + 1, window_s, true, traced);
    report.traced_work_items = static_cast<double>(traced.points);
    const serve::ServeStats s1 = server->stats();
    const double requests = static_cast<double>(traced.requests);
    report.layer["serve.coalesced_share"] =
        static_cast<double>(traced.coalesced_points) /
        static_cast<double>(std::max<std::int64_t>(1, traced.points));
    report.layer["serve.journal_records_per_request"] =
        static_cast<double>(s1.journal_records - s0.journal_records) / requests;
    report.layer["serve.max_queued"] = static_cast<double>(traced.max_queued);
    report.layer["serve.rejected_share"] =
        static_cast<double>(s1.requests_rejected() - s0.requests_rejected()) /
        requests;
    const double hits = static_cast<double>(s1.cache.hits - s0.cache.hits);
    const double misses = static_cast<double>(s1.cache.misses - s0.cache.misses);
    report.layer["rt.cache_hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 1.0;
    report.layer["rt.cache_misses"] = misses;
    report.layer["rt.executor_steals"] =
        static_cast<double>(s1.executor.stolen - s0.executor.stolen);
  }
  report.peak_rss_mb = peak_rss_mb();
  server.reset();
  tracer.set_enabled(false);

  if (args.trace) {
    // Warm rt::price_point on a cache of its own: one untimed pass fills
    // it, the traced pass prices every point of the pool again.
    tracer.set_enabled(true);
    Span probes("probes");
    // What a cold artifact-cache miss costs in set-up: voxelizing each
    // workload rt prices, and decomposing it (8 ranks, as a sample).
    for (const rt::WorkloadKind kind : rt::kAllWorkloads) {
      std::optional<sim::Workload> workload;
      {
        Span span("geom:rt::make_workload");
        workload.emplace(rt::make_workload(kind));
      }
      Span span("decomp:partition");
      if (workload->kind() == sim::DecompositionKind::kSlab)
        (void)decomp::slab_partition(workload->lattice(), 8);
      else
        (void)decomp::bisection_partition(workload->lattice(), 8);
    }
    rt::ArtifactCache cache;
    const rt::JobOptions job;
    for (int pass = 0; pass < 2; ++pass) {
      tracer.set_enabled(pass == 1);
      for (const rt::SeriesSpec& s : pool) {
        for (const sys::SchedulePoint& point : sys::piecewise_schedule(
                 sys::system_spec(s.system).max_devices)) {
          Span span("rt:price_point");
          (void)rt::price_point(cache, s, point, job);
        }
      }
    }
    tracer.set_enabled(false);
  }

  // ---- Output checks (outside every timed window) ----
  std::int64_t requests = 0, rejected = 0, points = 0, failed_points = 0;
  std::int64_t checked = 0, mismatched = 0;
  std::map<std::size_t, std::vector<std::string>> delivered;  // CSV
  for (const Tally* t : {warm.get(), &untraced, &traced}) {
    requests += t->requests;
    rejected += t->rejected;
    points += t->points;
    failed_points += t->failed_points;
    checked += t->series_checked;
    mismatched += t->series_mismatched;
    for (const auto& [p, points] : t->first)
      delivered[p].push_back(series_csv(pool[p], points));
  }
  report.attempted += requests + points;
  report.failed += rejected + failed_points;

  rt::CampaignSpec spec;
  spec.name = "check";
  spec.workers = kWorkers;
  for (const auto& [p, unused] : delivered) spec.series.push_back(pool[p]);
  rt::CampaignResult reference;
  {
    rt::ArtifactCache fresh;  // run_campaign on a cache of its own
    reference = rt::run_campaign(spec, fresh);
  }
  std::size_t k = 0;
  for (const auto& [p, csvs] : delivered) {
    const std::string want = series_csv(pool[p], reference.series[k++].points);
    for (const std::string& csv : csvs) mismatched += csv != want;
  }
  report.check("served_series_match_run_campaign", mismatched == 0,
               std::to_string(mismatched) + " mismatches over " +
                   std::to_string(checked) + " delivered series");
  std::filesystem::remove(wal);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
