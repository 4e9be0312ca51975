// Reproduces paper Table 3: inter-task communication from the easy weight
// computation task to the easy beamforming task, sweeping both node counts.
#include <cstdio>

#include "bench_util.hpp"

using namespace ppstap;
using core::NodeAssignment;
using core::Edge;

int main(int argc, char** argv) {
  bench::report_init("table3_comm_easywt", argc, argv);
  auto sim = bench::paper_simulator();
  bench::print_header(
      "Table 3: easy weight -> easy beamforming, send/recv (s)");

  // Paper values: rows easy wt {4, 8, 16} x cols easy BF {8, 16}.
  const double paper[3][2][2] = {
      {{.0005, .1956}, {.0007, .2570}},
      {{.0088, .0883}, {.0004, .0905}},
      {{.0768, .0807}, {.0003, .0660}},
  };
  const int wt_nodes[] = {4, 8, 16};
  const int bf_nodes[] = {8, 16};

  std::printf("%8s | %-10s | %-22s %-22s\n", "easy wt", "phase",
              "easy BF(8)", "easy BF(16)");
  for (int row = 0; row < 3; ++row) {
    std::printf("%8d | send      |", wt_nodes[row]);
    core::SimResult results[2];
    for (int col = 0; col < 2; ++col) {
      NodeAssignment a{{32, wt_nodes[row], 112, bf_nodes[col], 28, 16, 16}};
      results[col] = sim.simulate(a);
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kEasyWtToBf)];
      bench::print_vs(e.send, paper[row][col][0]);
    }
    std::printf("\n%8s | recv      |", "");
    for (int col = 0; col < 2; ++col) {
      const auto& e =
          results[col].edges[static_cast<size_t>(Edge::kEasyWtToBf)];
      bench::print_vs(e.recv, paper[row][col][1]);
      bench::report_row(bench::row({{"easy_wt_nodes", wt_nodes[row]},
                                    {"easy_bf_nodes", bf_nodes[col]},
                                    {"send_s", e.send},
                                    {"recv_s", e.recv},
                                    {"paper_send_s", paper[row][col][0]},
                                    {"paper_recv_s", paper[row][col][1]}}));
    }
    std::printf("\n");
  }
  std::printf(
      "\nTrend checks: weight vectors are tiny, so send is dominated by "
      "message startup; recv is dominated by the beamformer's idle wait "
      "for the (slow) weight task and shrinks as weight nodes grow.\n");
  return bench::report_finish();
}
