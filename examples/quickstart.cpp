// Quickstart: build a tiny timed-automata network by hand, ask a
// reachability question, and print the resulting timed trace — the
// library's core loop in ~60 lines.
//
// The model is a two-process handshake: a worker that must warm up for
// at least 3 time units before signalling (but no later than 5), and a
// listener that records the signal.
//
// Usage: quickstart [--extrapolation none|global|lu]
//                    [--no-lint] [--Werror]
#include <cstring>
#include <iostream>

#include "diag_util.hpp"
#include "engine/reachability.hpp"
#include "engine/trace.hpp"
#include "ta/printer.hpp"
#include "ta/system.hpp"

int main(int argc, char** argv) {
  engine::Options opts;
  examples::FrontendFlags frontend;
  for (int i = 1; i < argc; ++i) {
    if (frontend.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--extrapolation") == 0 && i + 1 < argc) {
      if (!engine::parseExtrapolation(argv[++i], &opts.extrapolation)) {
        std::cerr << "unknown extrapolation mode: " << argv[i] << "\n";
        return 2;
      }
    }
  }
  opts.optLevel = frontend.optLevel;

  ta::System sys;

  // Declarations: one clock, one integer variable, one channel.
  const ta::ClockId x = sys.addClock("x");
  const ta::VarId count = sys.addVar("count", 0);
  const ta::ChanId sig = sys.addChannel("signal");

  // Worker: warmup --[3 <= x <= 5] signal! --> done
  const ta::ProcId worker = sys.addAutomaton("worker");
  auto& w = sys.automaton(worker);
  const ta::LocId warmup = w.addLocation("warmup");
  const ta::LocId done = w.addLocation("done");
  w.setInvariant(warmup, {ta::ccLe(x, 5)});
  sys.edge(worker, warmup, done)
      .when(ta::ccGe(x, 3))
      .send(sig)
      .label("worker.signal");

  // Listener: idle --signal? count := count + 1--> got
  const ta::ProcId listener = sys.addAutomaton("listener");
  auto& l = sys.automaton(listener);
  const ta::LocId idle = l.addLocation("idle");
  const ta::LocId got = l.addLocation("got");
  sys.edge(listener, idle, got)
      .receive(sig)
      .assign(count, sys.rd(count) + 1);

  sys.finalize();
  examples::lintHandBuilt(sys, frontend, "quickstart");
  std::cout << ta::printModel(sys, {}) << "\n";

  // Reachability: can the listener receive with count == 1?
  engine::Goal goal;
  goal.locations = {{listener, got}};
  goal.predicate = (sys.rd(count) == 1).ref();

  engine::Reachability checker(sys, opts);
  const engine::Result res = checker.run(goal);
  std::cout << "reachable: " << std::boolalpha << res.reachable << " ("
            << res.stats.statesExplored << " states explored)\n";
  if (!res.reachable) return 1;

  // Concretize the symbolic trace into exact delays and print it.
  std::string err;
  const auto trace = engine::concretize(sys, res.trace, &err);
  if (!trace.has_value()) {
    std::cerr << "concretize: " << err << "\n";
    return 1;
  }
  std::cout << "\ntimed trace (earliest realization):\n"
            << engine::toString(sys, *trace);
  std::cout << "\nthe signal fires at t=" << trace->makespan()
            << " — the guard's lower bound, as expected\n";
  return 0;
}
