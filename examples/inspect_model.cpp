// The generated plant automata as `.gta` text — the counterpart of the
// paper's Figures 3/4 (unguided vs guided batch automaton) and Figures
// 7/8/9 (recipe, crane, batch automata).
//
// Usage: inspect_model [guides: all|some|none] [process-name-substring]
//                       [--no-lint] [--Werror]
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "diag_util.hpp"
#include "plant/plant.hpp"
#include "ta/printer.hpp"

int main(int argc, char** argv) {
  plant::GuideLevel guides = plant::GuideLevel::kAll;
  examples::FrontendFlags frontend;
  std::string filter;
  // Frontend flags may appear anywhere; positionals keep their slots.
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (!frontend.consume(argc, argv, i)) pos.push_back(argv[i]);
  }
  argc = static_cast<int>(pos.size()) + 1;
  for (size_t i = 0; i < pos.size(); ++i) argv[i + 1] = pos[i];
  if (argc > 1) {
    const std::string g = argv[1];
    guides = g == "none"   ? plant::GuideLevel::kNone
             : g == "some" ? plant::GuideLevel::kSome
                           : plant::GuideLevel::kAll;
  }
  if (argc > 2) filter = argv[2];

  plant::PlantConfig cfg;
  cfg.order = {plant::qualityAB(), plant::qualityA()};
  cfg.guides = guides;
  const auto p = plant::buildPlant(cfg);
  examples::lintHandBuilt(p->sys, frontend, "inspect_model");

  const ta::System& sys = p->sys;
  std::cout << "=== " << plant::toString(guides) << ": " << sys.numAutomata()
            << " automata, " << sys.numClocks() << " clocks, "
            << sys.numVars() << " int variables, " << sys.numChannels()
            << " channels ===\n";
  const std::string text = ta::printModel(sys, {});
  if (filter.empty()) {
    std::cout << text;
    return 0;
  }
  // Print only the processes whose name contains the filter.
  std::istringstream lines(text);
  std::string line;
  bool printing = false;
  while (std::getline(lines, line)) {
    if (line.rfind("process ", 0) == 0) {
      printing = line.find(filter) != std::string::npos;
    }
    if (printing) std::cout << line << "\n";
  }
  return 0;
}
