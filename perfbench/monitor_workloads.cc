// fig10 and multi_pattern: inputs replayed through a synchronous Monitor,
// one fresh monitor per round (README.md).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ocep;

/// Inputs are sized so that one round's working set (input, monitor store,
/// leaf histories) stays within a core's 2 MiB L2 and so survives from one
/// round to the next: timings then do not follow how hard other tenants of
/// the host are using the shared L3 (README.md, "Host noise").  fig10's
/// 50-trace cases get about 3000 events each, about 60 per trace: a
/// small-history regime (README.md compares it with Fig 10's sizes).
/// Ordering's 500 traces cannot fit and run at the generator's minimum of
/// two requests per follower (about 5300 events).
constexpr std::uint64_t kFig10Events = 3000;
/// multi_pattern's computation: bench/pipeline's shape, L2-sized.
constexpr std::uint32_t kMultiTraces = 8;
constexpr std::uint32_t kMultiEvents = 2500;
/// Timed rounds move to the next CPU after this long (Cpus, harness.h):
/// long enough that most rounds find their data in a warm L2.
constexpr std::int64_t kStintNs = 250'000'000;
/// Every input is timed at least this often, however short the budget.
constexpr std::size_t kMinRounds = 5;
/// Untimed rounds that measure resident memory, each from a trimmed heap.
constexpr std::size_t kMemoryRounds = 5;
/// Rounds whose per-event samples feed the traced tail populations (enough
/// for a p99 with ten samples beyond it on every case).
constexpr std::size_t kPooledRounds = 64;

struct Input {
  std::string name;
  ocep::StringPool* pool = nullptr;
  const Stream* stream = nullptr;
  std::vector<std::string> patterns;
  RoundCheck check;
};

/// Samples of one input across the timed rounds of a pass.
struct Samples {
  std::vector<double> setup_ns, on_event_ns, term_ns, all_ns;
  std::vector<double> compile_ns, append_ns, encode_ns, decode_ns;
  std::vector<double> pooled_searched_ns, pooled_all_ns;
};

double geomean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) {
    sum += std::log(v);
  }
  return values.empty() ? 0.0
                        : std::exp(sum / static_cast<double>(values.size()));
}

void append_all(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

class MonitorWorkload final : public Workload {
 public:
  /// `owned` keeps alive whatever the inputs point into; `truth` describes
  /// the ground truth the checks hold the outputs to.
  MonitorWorkload(std::shared_ptr<void> owned, std::vector<Input> inputs,
                  bool per_case, const Json& truth)
      : owned_(std::move(owned)),
        inputs_(std::move(inputs)),
        per_case_(per_case) {
    about_inputs_ = truth;
    for (const Input& input : inputs_) {
      about_inputs_
          .str(input.name + ".digest", hex(digest(*input.pool, *input.stream)))
          .u64(input.name + ".events", input.stream->events.size());
    }
  }

  Pass measure(double budget_s, Tracer& tracer) override;

 private:
  std::shared_ptr<void> owned_;
  std::vector<Input> inputs_;
  bool per_case_;  ///< report core.search_us per input (fig10)
};

Pass MonitorWorkload::measure(double budget_s, Tracer& tracer) {
  Pass pass;
  const bool traced = tracer.on();
  Tracer* spans = traced ? &tracer : nullptr;
  std::vector<Replayer> replayers;
  for (const Input& input : inputs_) {
    replayers.emplace_back(*input.pool, *input.stream, input.patterns);
  }
  std::vector<Samples> samples(inputs_.size());
  std::vector<RoundResult> reference(inputs_.size());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);

  // Round 0 validates every reported match and warms the caches; it is
  // not timed.  Every later round must report exactly what it reported.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    std::string error;
    reference[i] = replayers[i].run(&inputs_[i].check, false, error);
    ++pass.attempted;
    if (!error.empty()) {
      pass.fail(inputs_[i].name + ": " + error);
    }
  }
  const Cpus cpus;
  std::size_t stints = 0;
  std::int64_t stint_start = 0;
  std::size_t rounds = 0;
  while (rounds < kMinRounds || now_ns() < deadline) {
    ++rounds;
    if (now_ns() - stint_start > kStintNs) {
      cpus.pin(stints++);
      stint_start = now_ns();
    }
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const std::int64_t round_start = now_ns();
      const std::uint32_t round_span =
          tracer.span("round", round_start, round_start);
      std::string error;
      const RoundResult r =
          replayers[i].run(nullptr, traced, error, spans, round_span);
      ++pass.attempted;
      tracer.close(round_span, now_ns());
      if (r.digest != reference[i].digest ||
          !(r.counts == reference[i].counts)) {
        pass.fail(inputs_[i].name + ": round " + std::to_string(rounds) +
                  " reported other matches than the validated round");
      }
      Samples& s = samples[i];
      s.setup_ns.push_back(r.setup_ns);
      s.on_event_ns.push_back(r.on_event_ns);
      s.term_ns.push_back(r.searched_p50_ns);
      s.all_ns.push_back(r.all_p50_ns);
      if (traced) {
        append_all(s.compile_ns, r.compile_ns);
        if (rounds <= kPooledRounds) {
          append_all(s.pooled_searched_ns, replayers[i].searched_ns());
          append_all(s.pooled_all_ns, replayers[i].all_ns());
        }
        const std::int64_t poet_start = now_ns();
        const PoetCost cost =
            poet_cost(*inputs_[i].pool, *inputs_[i].stream, error);
        tracer.span("poet.append+encode+decode", poet_start, now_ns(),
                    round_span);
        if (!error.empty()) {
          pass.fail(inputs_[i].name + ": " + error);
        }
        s.append_ns.push_back(cost.append_ns);
        s.encode_ns.push_back(cost.encode_ns);
        s.decode_ns.push_back(cost.decode_ns);
      }
    }
  }
  cpus.unpin();

  // Memory: the resident growth of one round of the largest input, from a
  // heap trimmed right before it; the median over a few such rounds.
  std::vector<double> resident_mb;
  for (std::size_t k = 0; k < kMemoryRounds; ++k) {
    double largest = 0;
    for (Replayer& replayer : replayers) {
      PeakMemory memory;
      memory.reset();
      std::string error;
      static_cast<void>(replayer.run(nullptr, false, error));
      largest = std::max(largest, memory.peak_mb());
    }
    resident_mb.push_back(largest);
  }

  double setup_ns = 0;
  double events = 0;
  std::vector<double> rates;
  double append = 0;
  double encode = 0;
  double decode = 0;
  std::vector<double> terms;
  std::vector<double> alls;
  std::vector<double> compile_ns;
  std::vector<double> pooled_all;
  CoreCounts counts;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Samples& s = samples[i];
    const double n = static_cast<double>(inputs_[i].stream->events.size());
    setup_ns += fast_state(s.setup_ns);
    rates.push_back(n / (fast_state(s.on_event_ns) / 1e9));
    events += n;
    terms.push_back(fast_state(s.term_ns));
    alls.push_back(fast_state(s.all_ns));
    append += fast_state(s.append_ns) * n;
    encode += fast_state(s.encode_ns) * n;
    decode += fast_state(s.decode_ns) * n;
    append_all(compile_ns, s.compile_ns);
    append_all(pooled_all, s.pooled_all_ns);
    counts += reference[i].counts;
    if (traced) {
      const Tail searched = summarize(s.pooled_searched_ns);
      pass.populations.raw("core.search_ns." + inputs_[i].name,
                           tail_json(searched, "ns"));
      pass.populations.raw("core.on_event_ns." + inputs_[i].name,
                           tail_json(summarize(s.pooled_all_ns), "ns"));
      if (per_case_) {
        const std::string key = "core.search_us." + inputs_[i].name;
        pass.layer[key + ".p50"] = terms.back() / 1e3;
        pass.layer[key + ".p99"] = searched.p99 / 1e3;
        pass.layer[key + ".n"] = static_cast<double>(searched.n);
      }
    }
    pass.notes.u64("events." + inputs_[i].name,
                   inputs_[i].stream->events.size())
        .num("events_per_s." + inputs_[i].name, rates.back())
        .num("term_p50_us." + inputs_[i].name, terms.back() / 1e3)
        .num("ingest_p50_us." + inputs_[i].name, alls.back() / 1e3);
  }
  pass.notes.u64("timed_rounds_per_input", rounds);

  pass.e2e.setup_s = setup_ns / 1e9;
  pass.e2e.events_per_s = geomean(rates);
  pass.e2e.term_p50_us = geomean(terms) / 1e3;
  pass.e2e.ingest_p50_us = geomean(alls) / 1e3;
  pass.e2e.rss_peak_mb = quantile(resident_mb, 0.5);

  pass.work = {
      {"events", counts.events},
      {"searches", counts.searches},
      {"nodes_explored", counts.nodes_explored},
      {"matches_reported", counts.matches_reported},
      {"backjumps", counts.backjumps},
      {"leaf_hits", counts.leaf_hits},
      {"history_entries", counts.history_entries},
  };
  if (traced) {
    std::map<std::string, double>& l = pass.layer;
    l["pattern.compile_us"] = fast_state(compile_ns) / 1e3;
    l["core.on_event_ns"] = geomean(alls);
    const Tail all_tail = summarize(pooled_all);
    l["core.on_event_ns.p99"] = all_tail.p99;
    l["core.on_event_ns.n"] = static_cast<double>(all_tail.n);
    std::uint64_t offered = 0;
    for (const Input& input : inputs_) {
      offered += input.stream->events.size() * input.patterns.size();
    }
    put_core_counts(l, counts, offered);
    l["poet.append_ns"] = append / events;
    l["poet.encode_ns_per_event"] = encode / events;
    l["poet.decode_ns_per_event"] = decode / events;
  }
  return pass;
}

}  // namespace

std::unique_ptr<Workload> make_fig10(std::uint64_t seed) {
  auto cases = std::make_shared<std::vector<CaseStudy>>(
      fig10_cases(kFig10Events, seed));
  std::vector<Input> inputs;
  for (const CaseStudy& study : *cases) {
    Input input;
    input.name = study.name;
    input.pool = study.generated.pool.get();
    input.stream = &study.stream;
    input.patterns = {study.pattern};
    input.check = [&study](Monitor& monitor,
                           const std::vector<std::vector<Match>>& reported) {
      return missing_violations(study, monitor.store(), reported[0]);
    };
    inputs.push_back(std::move(input));
  }
  // The violations each case's reported matches must cover.
  Json truth;
  for (const CaseStudy& study : *cases) {
    truth.u64(study.name + ".violations",
              (study.deadlock_cycle.empty() ? 0 : 1) +
                  study.racing_receives.size() + study.skipped_enters.size() +
                  study.stale_forwards.size());
    if (study.name == "atomicity") {
      truth.u64("atomicity.unmatchable_skips", study.unmatchable_skips);
    }
  }
  return std::make_unique<MonitorWorkload>(cases, std::move(inputs), true,
                                           truth);
}

std::unique_ptr<Workload> make_multi_pattern(std::uint64_t seed) {
  struct Owned {
    StringPool pool;
    Stream stream;
  };
  auto owned = std::make_shared<Owned>();
  owned->stream =
      random_computation(owned->pool, kMultiTraces, kMultiEvents, seed);
  // bench/pipeline's sixteen two-leaf precedence patterns over A..D.
  std::vector<std::string> patterns;
  for (char x = 'A'; x <= 'D'; ++x) {
    for (char y = 'A'; y <= 'D'; ++y) {
      patterns.push_back(std::string("P := ['', ") + x + ", '']; Q := ['', " +
                         y + ", ''];\npattern := P -> Q;\n");
    }
  }
  Input input;
  input.name = "multi_pattern";
  input.pool = &owned->pool;
  input.stream = &owned->stream;
  input.patterns = std::move(patterns);
  input.check = [](Monitor&, const std::vector<std::vector<Match>>& reported) {
    for (const std::vector<Match>& matches : reported) {
      if (matches.empty()) {
        return std::string("a pattern reported no match");
      }
    }
    return std::string();
  };
  std::vector<Input> inputs;
  inputs.push_back(std::move(input));
  return std::make_unique<MonitorWorkload>(owned, std::move(inputs), false,
                                           Json());
}

}  // namespace perfbench
