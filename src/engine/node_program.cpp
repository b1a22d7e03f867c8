#include "engine/node_program.hpp"

namespace ncc {

ProgramResult run_program(Network& net, NodeProgram& prog, uint64_t max_rounds) {
  ProgramResult res;
  const NodeId n = net.n();
  while (res.rounds < max_rounds) {
    const uint64_t round = res.rounds;
    engine_send_loop(net, n, [&](uint64_t u, Network& out) {
      NodeId id = static_cast<NodeId>(u);
      prog.step(id, round, net.inbox(id), out);
    });
    net.end_round();
    ++res.rounds;
    if (prog.done(res.rounds)) break;
  }
  return res;
}

}  // namespace ncc
