// Figure 18: (a) pipelined vs non-pipelined eviction across batch sizes on
// GapBS; (b) low-thread-count regression test (4 threads) across offloading.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"

int main() {
  using namespace magesim;

  // Scale 18 keeps the pipeline's in-flight pages a small fraction of the
  // residency, as at the paper's pool sizes.
  WorkloadFactory make48 = PageRankFactory({.scale = 18, .iterations = 3, .threads = 48});

  PrintBanner("Figure 18a: eviction batch size, pipelined vs sequential (GapBS, 30% far)");
  {
    // One evictor thread makes per-evictor eviction throughput the binding
    // constraint (the paper's 20 GB working sets bind at four).
    Table t({"batch", "pipelined(norm%)", "sequential(norm%)"});
    for (int batch : {32, 64, 128, 256, 512}) {
      KernelConfig pip = MageLibConfig();
      pip.evict_batch_pages = batch;
      pip.num_evictors = 1;
      KernelConfig seq = pip;
      seq.pipelined_eviction = false;
      auto rp = SweepSystem(pip, make48, {0, 30});
      auto rs = SweepSystem(seq, make48, {0, 30});
      t.AddRow({std::to_string(batch), Table::Pct(rp[1].normalized * 100),
                Table::Pct(rs[1].normalized * 100)});
    }
    PrintFigureTable(t);
  }

  PrintBanner("Figure 18b: regression at 4 threads (low fault-in demand)");
  {
    WorkloadFactory make4 = PageRankFactory({.scale = 17, .iterations = 3, .threads = 4});
    std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70, 80};
    std::map<std::string, std::vector<SweepPoint>> res;
    for (const auto& cfg : {MageLibConfig(), DilosConfig(), HermitConfig()}) {
      res[cfg.name] = SweepSystem(cfg, make4, fars);
    }
    Table t({"far%", "magelib", "dilos", "hermit"});
    for (size_t i = 0; i < fars.size(); ++i) {
      t.AddRow({std::to_string(fars[i]), Table::Pct(res["magelib"][i].normalized * 100),
                Table::Pct(res["dilos"][i].normalized * 100),
                Table::Pct(res["hermit"][i].normalized * 100)});
    }
    PrintFigureTable(t);
    std::printf("(at low demand all systems should be comparable: no throughput\n"
                " regression from MAGE's scalability-oriented design)\n");
  }
  return 0;
}
