// Section 7.3 — idIVM vs the two Simulated-DBToaster variants across diff
// sizes. Paper findings: idIVM significantly outperforms SDBT-streams and is
// in most cases slightly slower than SDBT-fixed (which pays nothing to
// maintain its auxiliary views because only `parts` streams). Also sweeps a
// mixed insert/delete/update workload where SDBT's update-t-diff advantage
// disappears.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace idivm;
  using namespace idivm::bench;

  ObsFlags obs = ParseObsOnlyFlags(argc, argv);

  DevicesPartsConfig config;
  PrintHeader("Section 7.3: idIVM vs Simulated DBToaster, varying diff size",
              "d");
  for (int64_t d : {100, 200, 300, 400, 500}) {
    const EngineResult id = RunIdIvm(config, d);
    const EngineResult fixed =
        RunSdbt(config, d, SdbtDevicesParts::Mode::kFixed);
    const EngineResult streams =
        RunSdbt(config, d, SdbtDevicesParts::Mode::kStreams);
    const std::string param = std::to_string(d);
    PrintRow(param, id);
    PrintRow(param, fixed);
    PrintRow(param, streams);
    std::printf(
        "%-8s idIVM vs SDBT-fixed: %.2fx   idIVM vs SDBT-streams: %.2fx "
        "(accesses; >1 means idIVM cheaper)\n",
        param.c_str(),
        static_cast<double>(fixed.TotalAccesses()) /
            static_cast<double>(id.TotalAccesses()),
        static_cast<double>(streams.TotalAccesses()) /
            static_cast<double>(id.TotalAccesses()));
  }
  obs.WriteOutputs();
  return 0;
}
