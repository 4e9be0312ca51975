// Reproduces paper Table 4: inter-task communication from the hard weight
// computation task to the hard beamforming task.
#include <cstdio>

#include "bench_util.hpp"

using namespace ppstap;
using core::NodeAssignment;
using core::Edge;

int main(int argc, char** argv) {
  bench::report_init("table4_comm_hardwt", argc, argv);
  auto sim = bench::paper_simulator();
  bench::print_header(
      "Table 4: hard weight -> hard beamforming, send/recv (s)");

  // Paper values: rows hard wt {28, 56, 112} x cols hard BF {8, 16}.
  const double paper[3][2][2] = {
      {{.0007, .1798}, {.0007, .2485}},
      {{.0100, .1468}, {.0065, .0765}},
      {{.1824, .1398}, {.0005, .0543}},
  };
  const int wt_nodes[] = {28, 56, 112};
  const int bf_nodes[] = {8, 16};

  std::printf("%8s | %-10s | %-22s %-22s\n", "hard wt", "phase",
              "hard BF(8)", "hard BF(16)");
  for (int row = 0; row < 3; ++row) {
    core::SimResult results[2];
    std::printf("%8d | send      |", wt_nodes[row]);
    for (int col = 0; col < 2; ++col) {
      NodeAssignment a{{32, 16, wt_nodes[row], 16, bf_nodes[col], 16, 16}};
      results[col] = sim.simulate(a);
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kHardWtToBf)];
      bench::print_vs(e.send, paper[row][col][0]);
    }
    std::printf("\n%8s | recv      |", "");
    for (int col = 0; col < 2; ++col) {
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kHardWtToBf)];
      bench::print_vs(e.recv, paper[row][col][1]);
      bench::report_row(bench::row({{"hard_wt_nodes", wt_nodes[row]},
                                    {"hard_bf_nodes", bf_nodes[col]},
                                    {"send_s", e.send},
                                    {"recv_s", e.recv},
                                    {"paper_send_s", paper[row][col][0]},
                                    {"paper_recv_s", paper[row][col][1]}}));
    }
    std::printf("\n");
  }
  std::printf(
      "\nTrend checks: more weight nodes shrink the beamformer's idle "
      "wait; the recv floor is set by the volume 6*Nhard*2J*M weights.\n");
  return bench::report_finish();
}
