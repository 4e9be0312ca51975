// Reproduces paper Table 5: inter-task communication from the easy and
// hard beamforming tasks to the pulse compression task.
#include <cstdio>

#include "bench_util.hpp"

using namespace ppstap;
using core::NodeAssignment;
using core::Edge;

int main(int argc, char** argv) {
  bench::report_init("table5_comm_bf", argc, argv);
  auto sim = bench::paper_simulator();
  bench::print_header(
      "Table 5: beamforming -> pulse compression, send/recv (s)");

  // Paper values: rows BF {4, 8, 16} x cols PC {8, 16}; upper block easy
  // BF, lower block hard BF.
  const double paper_easy[3][2][2] = {
      {{.0069, .5016}, {.0069, .5714}},
      {{.0036, .1379}, {.0036, .2090}},
      {{.0580, .0771}, {.0022, .0569}},
  };
  const double paper_hard[3][2][2] = {
      {{.0054, .5016}, {.0054, .5714}},
      {{.0029, .1379}, {.0030, .2090}},
      {{.1159, .0771}, {.0017, .0569}},
  };
  const int bf_nodes[] = {4, 8, 16};
  const int pc_nodes[] = {8, 16};

  for (int hard = 0; hard < 2; ++hard) {
    std::printf("\n%s beamforming:\n", hard ? "hard" : "easy");
    std::printf("%8s | %-10s | %-22s %-22s\n", "BF", "phase", "PC(8)",
                "PC(16)");
    for (int row = 0; row < 3; ++row) {
      core::SimResult results[2];
      std::printf("%8d | send      |", bf_nodes[row]);
      for (int col = 0; col < 2; ++col) {
        // Both BF tasks swept together, mirroring the paper's setup.
        NodeAssignment a{{32, 16, 112, bf_nodes[row], bf_nodes[row],
                          pc_nodes[col], 16}};
        results[col] = sim.simulate(a);
        const auto e = hard ? Edge::kHardBfToPc : Edge::kEasyBfToPc;
        const auto& et = results[col].edges[static_cast<size_t>(e)];
        const auto& pv = hard ? paper_hard[row][col] : paper_easy[row][col];
        bench::print_vs(et.send, pv[0]);
      }
      std::printf("\n%8s | recv      |", "");
      for (int col = 0; col < 2; ++col) {
        const auto e = hard ? Edge::kHardBfToPc : Edge::kEasyBfToPc;
        const auto& et = results[col].edges[static_cast<size_t>(e)];
        const auto& pv = hard ? paper_hard[row][col] : paper_easy[row][col];
        bench::print_vs(et.recv, pv[1]);
        bench::report_row(bench::row(
            {{"beamformer", hard ? "hard" : "easy"},
             {"bf_nodes", bf_nodes[row]},
             {"pc_nodes", pc_nodes[col]},
             {"send_s", et.send},
             {"recv_s", et.recv},
             {"paper_send_s", pv[0]},
             {"paper_recv_s", pv[1]}}));
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nTrend checks: no reorganization on this edge (same partition "
      "dimension), so send stays small; recv idle time collapses as the "
      "beamformers speed up.\n");
  return bench::report_finish();
}
