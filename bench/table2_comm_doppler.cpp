// Reproduces paper Table 2: inter-task communication time from the Doppler
// filter processing task to its four successor tasks, as the Doppler node
// count grows from 8 to 32.
//
// The paper's observations to reproduce: (1) the sender's visible send time
// halves with each doubling of its nodes (less data to collect/reorganize
// per node); (2) receive times — which include idle waiting for the sender
// — improve superlinearly as the pipeline tightens.
#include <cstdio>

#include "bench_util.hpp"

using namespace ppstap;
using core::NodeAssignment;
using core::Edge;

namespace {

struct PaperRow {
  double send, recv;
};

// Paper Table 2, rows Doppler = 8, 16, 32.
constexpr PaperRow kEasyWt[] = {{.1332, .4339}, {.0679, .1780}, {.0340, .0511}};
constexpr PaperRow kHardWt56[] = {{.1332, .3603}, {.0679, .1048}, {.0332, .0034}};
constexpr PaperRow kHardWt112[] = {{.1332, .4441}, {.0679, .1837}, {.0340, .0563}};
constexpr PaperRow kEasyBf[] = {{.1332, .4509}, {.0679, .1955}, {.0340, .0646}};
constexpr PaperRow kHardBf[] = {{.1332, .4395}, {.0679, .1843}, {.0340, .0519}};

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("table2_comm_doppler", argc, argv);
  auto sim = bench::paper_simulator();
  bench::print_header(
      "Table 2: Doppler filter -> successors, send/recv (s). Successor "
      "nodes: easy wt 16, hard wt 56 or 112, easy BF 16, hard BF 16");

  const int doppler_nodes[] = {8, 16, 32};
  std::printf("%8s | %-10s | %-22s %-22s %-22s %-22s %-22s\n", "doppler",
              "phase", "easy wt(16)", "hard wt(56)", "hard wt(112)",
              "easy BF(16)", "hard BF(16)");
  for (int row = 0; row < 3; ++row) {
    const int d = doppler_nodes[row];
    NodeAssignment a56{{d, 16, 56, 16, 16, 16, 8}};
    NodeAssignment a112{{d, 16, 112, 16, 16, 16, 8}};
    const auto r56 = sim.simulate(a56);
    const auto r112 = sim.simulate(a112);
    const auto edge = [&](const core::SimResult& r, Edge e) {
      return r.edges[static_cast<size_t>(e)];
    };

    std::printf("%8d | send      |", d);
    bench::print_vs(edge(r56, Edge::kDopToEasyWt).send, kEasyWt[row].send);
    bench::print_vs(edge(r56, Edge::kDopToHardWt).send,
                    kHardWt56[row].send);
    bench::print_vs(edge(r112, Edge::kDopToHardWt).send,
                    kHardWt112[row].send);
    bench::print_vs(edge(r56, Edge::kDopToEasyBf).send, kEasyBf[row].send);
    bench::print_vs(edge(r56, Edge::kDopToHardBf).send, kHardBf[row].send);
    std::printf("\n%8s | recv      |", "");
    bench::print_vs(edge(r56, Edge::kDopToEasyWt).recv, kEasyWt[row].recv);
    bench::print_vs(edge(r56, Edge::kDopToHardWt).recv,
                    kHardWt56[row].recv);
    bench::print_vs(edge(r112, Edge::kDopToHardWt).recv,
                    kHardWt112[row].recv);
    bench::print_vs(edge(r56, Edge::kDopToEasyBf).recv, kEasyBf[row].recv);
    bench::print_vs(edge(r56, Edge::kDopToHardBf).recv, kHardBf[row].recv);
    std::printf("\n");

    const struct {
      const char* successor;
      const core::SimResult& r;
      Edge e;
      const PaperRow& paper;
    } cols[] = {
        {"easy_wt_16", r56, Edge::kDopToEasyWt, kEasyWt[row]},
        {"hard_wt_56", r56, Edge::kDopToHardWt, kHardWt56[row]},
        {"hard_wt_112", r112, Edge::kDopToHardWt, kHardWt112[row]},
        {"easy_bf_16", r56, Edge::kDopToEasyBf, kEasyBf[row]},
        {"hard_bf_16", r56, Edge::kDopToHardBf, kHardBf[row]},
    };
    for (const auto& col : cols)
      bench::report_row(bench::row({{"doppler_nodes", d},
                                    {"successor", col.successor},
                                    {"send_s", edge(col.r, col.e).send},
                                    {"recv_s", edge(col.r, col.e).recv},
                                    {"paper_send_s", col.paper.send},
                                    {"paper_recv_s", col.paper.recv}}));
  }
  std::printf(
      "\nTrend checks: send scales ~1/P_doppler; recv (incl. idle waiting "
      "for the Doppler task) collapses superlinearly as Doppler nodes "
      "grow.\n");
  return bench::report_finish();
}
