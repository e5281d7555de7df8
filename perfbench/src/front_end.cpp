// front_end: closed loop, one client keeping two requests in flight on
// one serve worker. Every request
// carries a new inline spec_text from the seeded spec generator, and the
// kinds rotate through check, synth without cosim, and explore (top-K 0,
// all three protocols, alternative groupings). It uses serve, explore and
// the caches the opposite way from the serve workloads: every store
// lookup misses, the parser, estimator, bus generation, P1-P5 and the
// static checker do all the work, and the simulator never runs. A cache
// or simulator change should read as no change here; a parser or
// estimation change shows here and not in flc_sweep.
#include <deque>
#include <future>
#include <optional>

#include "lib/spec_gen.hpp"
#include "lib/stats.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "src/bench.hpp"
#include "src/replay.hpp"

namespace perfbench {

using namespace ifsyn;

namespace {

constexpr int kKinds = 3;
const char* const kKindNames[kKinds] = {"check", "synth", "explore"};
/// Reports of the first kDigestRequests requests are digested, and
/// re-executed after the timed loop to check they repeat.
constexpr std::uint64_t kDigestRequests = 60;
/// Replayed requests use spec indices from here on, so they are as cold
/// as the timed ones.
constexpr std::uint64_t kReplayIndexBase = std::uint64_t{1} << 32;
constexpr int kReplaysPerKind = 8;
constexpr std::uint64_t kWarmRequests = 30;

std::string request_line(std::uint64_t seed, std::uint64_t index) {
  const std::string id = "fe" + std::to_string(index);
  const std::string text =
      serve::json_quote(generate_spec(seed, index).text);
  switch (index % kKinds) {
    case 0:
      return "{\"id\":\"" + id + "\",\"op\":\"check\",\"spec_text\":" + text +
             ",\"options\":{\"arbitrate\":true}}";
    case 1:
      return "{\"id\":\"" + id + "\",\"op\":\"synth\",\"spec_text\":" + text +
             ",\"options\":{\"arbitrate\":true,\"cosim\":false}}";
    default:
      return "{\"id\":\"" + id + "\",\"op\":\"explore\",\"spec_text\":" +
             text +
             ",\"options\":{\"top_k\":0,\"protocols\":[\"full\",\"half\","
             "\"fixed\"],\"alt_groupings\":true}}";
  }
}

}  // namespace

Outcome run_front_end(const Args& args) {
  Outcome out;
  std::optional<serve::Service> service;
  const double setup_s = timed_setup([&] {
    service.reset();
    serve::ServiceOptions options;
    options.workers = 1;
    service.emplace(options);
    service->start();
    // Warm the code paths (not the stores) with specs outside the timed
    // index range.
    for (std::uint64_t i = 0; i < kWarmRequests; ++i) {
      Result<serve::Request> request =
          parse_line(request_line(args.seed, kReplayIndexBase * 2 + i));
      if (!request.is_ok() || !service->submit(std::move(*request)).get().ok) {
        out.fail("warm-up request failed");
      }
    }
  });
  out.set("setup_s", setup_s);
  out.config.push_back({"serve workers", "1"});
  if (!out.correct) return out;

  Spans traced(args.sink);
  Spans untraced(nullptr);

  const obs::MetricsSnapshot before = service->metrics_snapshot();
  std::vector<double> plain_us, traced_us;
  std::map<std::string, std::vector<double>> execute_ms;
  std::uint64_t digest = kFnvOffset;
  const double loop_seconds = args.trace ? args.seconds * 0.8 : args.seconds;

  // Two requests in flight: the client submits the next request before it
  // waits for the current one, so the worker never sleeps between
  // requests and the loop measures the work, not thread wake-up latency.
  struct InFlight {
    std::uint64_t index;
    bool traced;
    Clock::time_point start;
    std::future<serve::Response> response;
  };
  std::deque<InFlight> in_flight;
  auto send = [&](std::uint64_t index) {
    // A traced run alternates blocks of 30 plain and 30 traced requests.
    const bool trace_this = args.trace && (index / 30) % 2 == 1;
    Spans& spans = trace_this ? traced : untraced;
    const std::string line = request_line(args.seed, index);
    const obs::RequestContext ctx{"fe" + std::to_string(index), 0};
    const Clock::time_point start = Clock::now();
    std::optional<Result<serve::Request>> request;
    spans.time("serve.parse_request",
               [&] { request.emplace(parse_line(line)); }, &ctx);
    if (!request->is_ok()) {
      out.fail("request line does not parse: " + request->status().to_string());
      return;
    }
    std::future<serve::Response> response;
    spans.time("serve.submit",
               [&] { response = service->submit(std::move(**request)); },
               &ctx);
    in_flight.push_back({index, trace_this, start, std::move(response)});
  };
  auto receive = [&] {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    Spans& spans = f.traced ? traced : untraced;
    const obs::RequestContext ctx{"fe" + std::to_string(f.index), 0};
    const serve::Response response = f.response.get();
    spans.time("serve.render_response",
               [&] { serve::render_response(response); }, &ctx);
    const double us = us_between(f.start, Clock::now());
    spans.record(std::string("request ") + kKindNames[f.index % kKinds],
                 f.start, us, &ctx);
    ++out.attempted;
    // Every generated spec is check-clean by construction, so every kind
    // must answer ok.
    if (!response.ok) {
      ++out.failed;
      out.fail(std::string(kKindNames[f.index % kKinds]) + " request " +
               std::to_string(f.index) + " answered " + response.error.code +
               ": " + response.error.message);
      return;
    }
    (f.traced ? traced_us : plain_us).push_back(us);
    execute_ms[kKindNames[f.index % kKinds]].push_back(
        static_cast<double>(response.elapsed_us) / 1000);
    if (f.index < kDigestRequests) digest = fnv1a(digest, response.report);
  };
  const Clock::time_point start = Clock::now();
  std::uint64_t index = 0;
  send(index++);
  while (out.correct && us_between(start, Clock::now()) < loop_seconds * 1e6) {
    send(index++);
    receive();
  }
  while (!in_flight.empty()) receive();
  const double elapsed_s = us_between(start, Clock::now()) / 1e6;
  const obs::MetricsSnapshot after = service->metrics_snapshot();

  // The same requests, now from warm caches, must give the same reports.
  if (index < kDigestRequests) {
    out.fail("the timed loop ended before " +
             std::to_string(kDigestRequests) + " requests");
  }
  std::uint64_t again = kFnvOffset;
  for (std::uint64_t i = 0; i < kDigestRequests && out.correct; ++i) {
    again = fnv1a(again, service->execute(parse_line(request_line(args.seed, i))
                                              .value())
                             .report);
  }
  if (out.correct && again != digest) {
    out.fail("reports of the first requests do not repeat");
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.config.push_back({"report digest (first " +
                            std::to_string(kDigestRequests) + " requests)",
                        hex});

  if (!args.trace) {
    std::vector<double> ms;
    for (double us : plain_us) ms.push_back(us / 1000);
    set_latency_metrics(out, ms, "request", 99);
    out.set("ops_per_s", static_cast<double>(ms.size()) / elapsed_s);
    return out;
  }

  out.set("trace_overhead_pct",
          (median(traced_us) / median(plain_us) - 1) * 100);
  for (const char* cls : {"synth", "check", "explore"}) {
    out.set(std::string("serve.execute_ms_p50.") + cls,
            median(execute_ms[cls]));
  }
  set_store_hit_ratios(out, before, after);

  // Replay: cold requests on fresh specs, each executed once by the
  // service and once through the layers, reports compared.
  RequestReplayer replayer(traced);
  std::vector<ReplaySample> samples;
  for (std::uint64_t i = 0; i < kKinds * kReplaysPerKind; ++i) {
    const std::uint64_t spec_index = kReplayIndexBase + i;
    const serve::Request request =
        parse_line(request_line(args.seed, spec_index)).value();
    serve::Response response;
    const double execute_us = traced.time(
        "Service::execute", [&] { response = service->execute(request); });
    ReplaySample sample{replay_class(request), execute_us,
                        replayer.replay(request)};
    if (!response.ok || sample.replay.report != response.report) {
      out.fail("replay of request " + std::to_string(spec_index) +
               " does not reproduce the service's report");
    }
    samples.push_back(std::move(sample));
  }
  set_replay_metrics(out, samples);
  return out;
}

}  // namespace perfbench
