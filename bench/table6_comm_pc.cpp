// Reproduces paper Table 6: inter-task communication from the pulse
// compression task to the CFAR processing task.
#include <cstdio>

#include "bench_util.hpp"

using namespace ppstap;
using core::NodeAssignment;
using core::Edge;

int main(int argc, char** argv) {
  bench::report_init("table6_comm_pc", argc, argv);
  auto sim = bench::paper_simulator();
  bench::print_header("Table 6: pulse compression -> CFAR, send/recv (s)");

  // Paper values: rows PC {4, 8, 16} x cols CFAR {4, 8}.
  const double paper[3][2][2] = {
      {{.0099, .3351}, {.0098, .3348}},
      {{.0053, .0662}, {.0051, .1750}},
      {{.1256, .0435}, {.0028, .1783}},
  };
  const int pc_nodes[] = {4, 8, 16};
  const int cfar_nodes[] = {4, 8};

  std::printf("%8s | %-10s | %-22s %-22s\n", "PC", "phase", "CFAR(4)",
              "CFAR(8)");
  for (int row = 0; row < 3; ++row) {
    core::SimResult results[2];
    std::printf("%8d | send      |", pc_nodes[row]);
    for (int col = 0; col < 2; ++col) {
      NodeAssignment a{{32, 16, 112, 16, 28, pc_nodes[row], cfar_nodes[col]}};
      results[col] = sim.simulate(a);
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kPcToCfar)];
      bench::print_vs(e.send, paper[row][col][0]);
    }
    std::printf("\n%8s | recv      |", "");
    for (int col = 0; col < 2; ++col) {
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kPcToCfar)];
      bench::print_vs(e.recv, paper[row][col][1]);
      bench::report_row(bench::row({{"pc_nodes", pc_nodes[row]},
                                    {"cfar_nodes", cfar_nodes[col]},
                                    {"send_s", e.send},
                                    {"recv_s", e.recv},
                                    {"paper_send_s", paper[row][col][0]},
                                    {"paper_recv_s", paper[row][col][1]}}));
    }
    std::printf("\n");
  }
  std::printf(
      "\nTrend checks: the real (power-domain) data is half the size of "
      "the complex cubes; recv is dominated by waiting for pulse "
      "compression and shrinks as PC nodes grow.\n");
  return bench::report_finish();
}
