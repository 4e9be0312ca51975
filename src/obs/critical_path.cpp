#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>

namespace ppstap::obs {

namespace {

// Labels for the seven Fig. 4 tasks, mirroring stap::task_name (obs cannot
// link against stap; the strings are part of the trace contract).
constexpr const char* kTaskLabels[kNumStapTasks] = {
    "Doppler filter processing",
    "easy weight computation",
    "hard weight computation",
    "easy beamforming",
    "hard beamforming",
    "pulse compression",
    "CFAR processing",
};

// Edge ids 4 (easy weight -> easy BF) and 5 (hard weight -> hard BF) carry
// weights computed from an earlier CPI (core's temporal SimEdges); they are
// off the eq. 2 latency path and excluded from the backward chain walk.
// They still bound queue-wait in the stage statistics: a beamformer idles
// until its weights arrive too.
bool temporal_edge(int edge) { return edge == 4 || edge == 5; }

// The {recv, comp, send} phase boundaries of one (rank, cpi) loop
// iteration, assembled from up to three pipeline spans.
struct Triple {
  int task = -1;
  double r0 = 0.0;  ///< recv start
  double r1 = 0.0;  ///< recv end / comp start
  double c1 = 0.0;  ///< comp end / send start
  double s1 = 0.0;  ///< send end
  bool has_recv = false, has_comp = false, has_send = false;
  bool complete() const { return has_recv && has_comp && has_send; }
};

using Key = std::pair<int, std::int64_t>;  // (rank, cpi)

}  // namespace

std::string stap_task_label(int task) {
  if (task >= 0 && task < kNumStapTasks)
    return kTaskLabels[static_cast<size_t>(task)];
  return "task" + std::to_string(task);
}

BottleneckReport analyze_spans(const std::vector<Span>& spans) {
  BottleneckReport rep;

  // Index phase triples by (rank, cpi) and delivered flows by the
  // receiving (rank, cpi). Ranks are globally unique per task in both live
  // traces (one thread per rank) and simulator traces (rank = task index).
  std::map<Key, Triple> triples;
  std::map<Key, std::vector<const Span*>> flows;
  std::map<std::int64_t, const Span*> fronts;  // front-end span per CPI
  for (const Span& s : spans) {
    if (std::strcmp(s.category, "flow") == 0 &&
        std::strcmp(s.name, "xfer") == 0) {
      if (s.cpi >= 0 && s.src_rank >= 0) flows[{s.rank, s.cpi}].push_back(&s);
      continue;
    }
    if (std::strcmp(s.category, "source") == 0 &&
        std::strcmp(s.name, "generate") == 0) {
      if (s.cpi >= 0) fronts[s.cpi] = &s;
      continue;
    }
    if (std::strcmp(s.category, "pipeline") != 0) continue;
    if (s.task < 0 || s.cpi < 0) continue;
    Triple& tr = triples[{s.rank, s.cpi}];
    tr.task = s.task;
    if (std::strcmp(s.name, "recv") == 0) {
      tr.r0 = s.t_start;
      tr.r1 = s.t_end;
      tr.has_recv = true;
    } else if (std::strcmp(s.name, "comp") == 0) {
      tr.c1 = s.t_end;
      tr.has_comp = true;
    } else if (std::strcmp(s.name, "send") == 0) {
      tr.s1 = s.t_end;
      tr.has_send = true;
    }
  }
  if (triples.empty()) {
    rep.note = "no pipeline phase spans";
    return rep;
  }

  // A CPI is analyzable only when every task present in the trace has a
  // complete triple for it (shed or truncated CPIs are excluded). With
  // more than 8 such CPIs, trim two from each end: the pipeline fill and
  // drain transients would otherwise skew the steady-state means.
  std::set<int> tasks;
  std::map<std::int64_t, std::set<int>> cpi_tasks;
  for (const auto& [key, tr] : triples) {
    if (!tr.complete()) continue;
    tasks.insert(tr.task);
    cpi_tasks[key.second].insert(tr.task);
  }
  if (tasks.empty()) {
    rep.note = "no complete recv/comp/send triples";
    return rep;
  }
  std::vector<std::int64_t> cpis;
  for (const auto& [cpi, ts] : cpi_tasks)
    if (ts.size() == tasks.size()) cpis.push_back(cpi);
  if (cpis.empty()) {
    rep.note = "no CPI has complete spans for every task";
    return rep;
  }
  if (cpis.size() > 8) {
    cpis.erase(cpis.begin(), cpis.begin() + 2);
    cpis.erase(cpis.end() - 2, cpis.end());
  }
  const std::set<std::int64_t> kept(cpis.begin(), cpis.end());

  // Stage statistics (Tables 7/8 columns). The queue-wait share of each
  // recv phase is bounded by the last flow delivery into that (rank, cpi):
  // before it the rank was idle waiting on producers, after it everything
  // is the rank's own unpack work.
  struct Acc {
    double recv = 0.0, wait = 0.0, comp = 0.0, send = 0.0;
    std::int64_t n = 0;
    std::set<int> ranks;
  };
  std::map<int, Acc> acc;
  for (const auto& [key, tr] : triples) {
    if (!tr.complete() || kept.count(key.second) == 0) continue;
    Acc& a = acc[tr.task];
    a.ranks.insert(key.first);
    a.n += 1;
    const double recv_len = tr.r1 - tr.r0;
    a.recv += recv_len;
    a.comp += tr.c1 - tr.r1;
    a.send += tr.s1 - tr.c1;
    const auto fit = flows.find(key);
    if (fit != flows.end()) {
      double last_delivery = 0.0;
      bool any = false;
      for (const Span* f : fit->second) {
        if (!any || f->t_end > last_delivery) last_delivery = f->t_end;
        any = true;
      }
      if (any) a.wait += std::clamp(last_delivery - tr.r0, 0.0, recv_len);
    }
  }
  for (const auto& [task, a] : acc) {
    StageStat st;
    st.task = task;
    st.ranks = static_cast<int>(a.ranks.size());
    st.samples = a.n;
    const auto n = static_cast<double>(a.n);
    st.recv = a.recv / n;
    st.wait = a.wait / n;
    st.comp = a.comp / n;
    st.send = a.send / n;
    rep.stages.push_back(st);
  }
  for (const StageStat& st : rep.stages) {
    if (st.intrinsic() > rep.period) {
      rep.period = st.intrinsic();
      rep.gating_task = st.task;
    }
  }
  for (StageStat& st : rep.stages) {
    st.utilization = rep.period > 0.0 ? st.intrinsic() / rep.period : 0.0;
    st.slack = rep.period - st.intrinsic();
  }
  rep.gating_task_name = stap_task_label(rep.gating_task);
  if (rep.period > 0.0) rep.throughput_estimate = 1.0 / rep.period;

  // Table-9/10-style rank reassignment: compute time scales ~1/ranks, so
  // bringing the gating group's intrinsic down to the runner-up's takes
  // ceil(n_g * (T_g / T_2 - 1)) extra ranks, after which the runner-up
  // gates at ~1/T_2.
  double runner_up = 0.0;
  const StageStat* gating_stage = nullptr;
  for (const StageStat& st : rep.stages) {
    if (st.task == rep.gating_task)
      gating_stage = &st;
    else
      runner_up = std::max(runner_up, st.intrinsic());
  }
  if (gating_stage != nullptr && runner_up > 0.0 &&
      gating_stage->intrinsic() > runner_up) {
    rep.recommend_task = rep.gating_task;
    rep.recommend_add_ranks = std::max(
        1, static_cast<int>(std::ceil(
               gating_stage->ranks *
               (gating_stage->intrinsic() / runner_up - 1.0))));
    rep.predicted_throughput = 1.0 / runner_up;
  }

  // Per-CPI causal chains: from the sink task's latest send end, follow
  // the gating (last-delivered, non-temporal) flow backward at each hop.
  // `hi` carries the downstream gating frame's send timestamp so each
  // hop's tiles cover exactly [its gating delivery, hi] — the tiles
  // telescope from sink send back to source recv with no gaps.
  const int sink_task = *tasks.rbegin();
  std::map<std::pair<int, std::int64_t>, std::vector<std::pair<int, const Triple*>>>
      by_task;
  for (const auto& [key, tr] : triples)
    if (tr.complete()) by_task[{tr.task, key.second}].push_back({key.first, &tr});

  for (const std::int64_t cpi : cpis) {
    const auto sit = by_task.find({sink_task, cpi});
    if (sit == by_task.end()) continue;
    int rank = -1;
    const Triple* tr = nullptr;
    for (const auto& [r, t] : sit->second) {
      if (tr == nullptr || t->s1 > tr->s1) {
        rank = r;
        tr = t;
      }
    }
    CpiChain ch;
    ch.cpi = cpi;
    const double t_out = tr->s1;
    double t_in = tr->r0;
    double hi = tr->s1;
    bool ok = false;
    for (int hop = 0; hop < 32; ++hop) {
      ch.compute += tr->c1 - tr->r1;
      ch.pack += std::max(0.0, hi - tr->c1);
      const Span* gate = nullptr;
      const auto fit = flows.find({rank, cpi});
      if (fit != flows.end()) {
        for (const Span* f : fit->second)
          if (!temporal_edge(f->edge) && (gate == nullptr || f->t_end > gate->t_end))
            gate = f;
      }
      if (gate == nullptr) {
        // Source stage (no spatial inputs). With a front-end span the CPI
        // entered the system at its admission: generation is the front
        // end's compute, the published cube then waits (queue) until the
        // walked rank starts on it, and the recv work after publication
        // is ingest. A rank already waiting on the front end overlaps it.
        if (const auto fit = fronts.find(cpi); fit != fronts.end()) {
          const Span* g = fit->second;
          const double pickup = std::clamp(g->t_end, tr->r0, tr->r1);
          ch.unpack += tr->r1 - pickup;
          ch.queue += std::max(0.0, tr->r0 - g->t_end);
          ch.compute += std::min(g->t_end, pickup) - g->t_start;
          t_in = g->t_start;
          ok = true;
          break;
        }
        // Without one, the recv is all ingest work. The CPI entered the
        // system when the FIRST rank of the source group started on it;
        // if the walked rank began later (it was still finishing the
        // previous CPI), that skew is source-side queueing and belongs to
        // the end-to-end latency budget.
        ch.unpack += tr->r1 - tr->r0;
        double first = tr->r0;
        const auto src_it = by_task.find({tr->task, cpi});
        if (src_it != by_task.end())
          for (const auto& [r2, t2] : src_it->second)
            first = std::min(first, t2->r0);
        ch.queue += tr->r0 - first;
        t_in = first;
        ok = true;
        break;
      }
      const double pickup = std::clamp(gate->t_end, tr->r0, tr->r1);
      ch.unpack += tr->r1 - pickup;
      const double queued =
          std::clamp(gate->queue_s, 0.0, gate->t_end - gate->t_start);
      ch.queue += queued;
      ch.transport += std::max(0.0, (gate->t_end - gate->t_start) - queued);
      ch.hops += 1;
      hi = gate->t_start;
      rank = gate->src_rank;
      const auto nit = triples.find({rank, cpi});
      if (nit == triples.end() || !nit->second.complete()) break;
      tr = &nit->second;
    }
    if (!ok) continue;
    ch.latency = t_out - t_in;
    if (ch.latency <= 0.0) continue;
    rep.chains.push_back(ch);
  }
  if (!rep.chains.empty()) {
    double lat = 0.0, frac = 0.0;
    for (const CpiChain& ch : rep.chains) {
      lat += ch.latency;
      frac += std::min(1.0, ch.accounted() / ch.latency);
    }
    const auto n = static_cast<double>(rep.chains.size());
    rep.mean_latency = lat / n;
    rep.accounted_fraction = frac / n;
  }

  rep.valid = true;
  if (flows.empty())
    rep.note = "no flow spans: queue-wait bounds and chain decomposition "
               "degraded to raw phase times";
  return rep;
}

Json BottleneckReport::to_json() const {
  Json doc = Json::object();
  doc["valid"] = valid;
  if (!note.empty()) doc["note"] = note;
  doc["gating_task"] = gating_task;
  doc["gating_task_name"] = gating_task_name;
  doc["period_s"] = period;
  doc["throughput_estimate_cpi_per_s"] = throughput_estimate;

  Json stages_j = Json::array();
  for (const StageStat& st : stages) {
    Json s = Json::object();
    s["task"] = st.task;
    s["name"] = stap_task_label(st.task);
    s["ranks"] = st.ranks;
    s["samples"] = st.samples;
    s["recv_s"] = st.recv;
    s["queue_wait_s"] = st.wait;
    s["comp_s"] = st.comp;
    s["send_s"] = st.send;
    s["service_s"] = st.service();
    s["intrinsic_s"] = st.intrinsic();
    s["utilization"] = st.utilization;
    s["slack_s"] = st.slack;
    stages_j.push_back(std::move(s));
  }
  doc["stages"] = std::move(stages_j);

  doc["chains_analyzed"] = chains.size();
  doc["mean_latency_s"] = mean_latency;
  doc["accounted_fraction"] = accounted_fraction;
  if (!chains.empty()) {
    double compute = 0, unpack = 0, pack = 0, transport = 0, queue = 0;
    for (const CpiChain& ch : chains) {
      compute += ch.compute;
      unpack += ch.unpack;
      pack += ch.pack;
      transport += ch.transport;
      queue += ch.queue;
    }
    const auto n = static_cast<double>(chains.size());
    Json b = Json::object();
    b["compute_s"] = compute / n;
    b["unpack_s"] = unpack / n;
    b["pack_s"] = pack / n;
    b["transport_s"] = transport / n;
    b["queue_s"] = queue / n;
    doc["latency_breakdown"] = std::move(b);
  }

  if (recommend_task >= 0) {
    Json r = Json::object();
    r["task"] = recommend_task;
    r["name"] = stap_task_label(recommend_task);
    r["add_ranks"] = recommend_add_ranks;
    r["predicted_throughput_cpi_per_s"] = predicted_throughput;
    doc["recommendation"] = std::move(r);
  }
  return doc;
}

std::vector<Span> spans_from_trace(const Json& chrome_doc) {
  std::vector<Span> spans;
  const Json* events = chrome_doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return spans;
  const auto num = [](const Json* j, double fallback) {
    return j != nullptr && j->is_number() ? j->as_number() : fallback;
  };
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const Json* cat = e.find("cat");
    const Json* name = e.find("name");
    if (cat == nullptr || name == nullptr || !cat->is_string() ||
        !name->is_string())
      continue;
    Span s;
    if (cat->as_string() == "pipeline") {
      s.category = "pipeline";
      if (name->as_string() == "recv")
        s.name = "recv";
      else if (name->as_string() == "comp")
        s.name = "comp";
      else if (name->as_string() == "send")
        s.name = "send";
      else
        continue;
    } else if (cat->as_string() == "flow" && name->as_string() == "xfer") {
      s.category = "flow";
      s.name = "xfer";
    } else if (cat->as_string() == "source" &&
               name->as_string() == "generate") {
      s.category = "source";
      s.name = "generate";
    } else {
      continue;
    }
    const double ts = num(e.find("ts"), 0.0);
    const double dur = num(e.find("dur"), 0.0);
    s.t_start = ts * 1e-6;
    s.t_end = (ts + dur) * 1e-6;
    const int pid = static_cast<int>(num(e.find("pid"), 0.0));
    s.task = pid >= 100 ? 100 - pid : pid;
    const Json* args = e.find("args");
    const auto arg = [&](const char* key, double fallback) {
      return num(args != nullptr ? args->find(key) : nullptr, fallback);
    };
    s.rank = static_cast<int>(arg("rank", num(e.find("tid"), 0.0)));
    s.cpi = static_cast<std::int64_t>(arg("cpi", -1.0));
    s.bytes = static_cast<std::int64_t>(arg("bytes", -1.0));
    s.src_rank = static_cast<std::int32_t>(arg("src_rank", -1.0));
    s.src_task = static_cast<std::int32_t>(arg("src_task", -1.0));
    s.edge = static_cast<std::int32_t>(arg("edge", -1.0));
    s.hop = static_cast<std::int32_t>(arg("hop", -1.0));
    s.queue_s = arg("queue_us", 0.0) * 1e-6;
    spans.push_back(s);
  }
  return spans;
}

BottleneckReport analyze_trace(const Json& chrome_doc) {
  if (const Json* events = chrome_doc.find("traceEvents");
      events == nullptr || !events->is_array()) {
    BottleneckReport rep;
    rep.note = "document has no traceEvents array";
    return rep;
  }
  return analyze_spans(spans_from_trace(chrome_doc));
}

}  // namespace ppstap::obs
