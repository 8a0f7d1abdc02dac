#include "core/seeding.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/prefilter.h"
#include "core/similarity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "util/thread_pool.h"

namespace cluseq {

std::vector<size_t> SelectSeeds(
    const SequenceStore& db, const std::vector<size_t>& unclustered,
    size_t num_seeds, size_t sample_size,
    const std::vector<std::shared_ptr<const FrozenPst>>& existing_models,
    const BackgroundModel& background, const PstOptions& pst_options,
    size_t num_threads, Rng* rng, bool batched_scan, bool prefilter) {
  std::vector<size_t> chosen;
  if (num_seeds == 0 || unclustered.empty()) return chosen;
  CLUSEQ_TRACE_SPAN("seeding.select_seeds");
  num_seeds = std::min(num_seeds, unclustered.size());
  sample_size = std::min(std::max(sample_size, num_seeds),
                         unclustered.size());

  // Draw the sample and compile one model per sample sequence.
  std::vector<size_t> sample_positions =
      rng->SampleWithoutReplacement(unclustered.size(), sample_size);
  std::vector<size_t> sample_seq(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    sample_seq[i] = unclustered[sample_positions[i]];
  }
  // Compiled once here, each snapshot is scored against up to
  // sample_size - 1 peers plus every farthest-first round below.
  std::vector<std::shared_ptr<const FrozenPst>> sample_psts(sample_size);
  ParallelFor(sample_size, num_threads, [&](size_t i) {
    const std::span<const SymbolId> sequence[] = {db.Symbols(sample_seq[i])};
    sample_psts[i] = std::make_shared<const FrozenPst>(FrozenPst::Compile(
        sequence, db.alphabet().size(), pst_options, background, 1));
  });

  // Outlier screen: how well is each sample explained by its best peer?
  // Outliers have no similar peers and would otherwise win every
  // farthest-first round.
  std::vector<double> peer_best(sample_size,
                                -std::numeric_limits<double>::infinity());
  // Each sample's scan cost is linear in its own length; weight the sample
  // loops by it so length-skewed databases stay balanced.
  const auto sample_cost = [&](size_t i) -> uint64_t {
    return db.Length(sample_seq[i]);
  };
  if (sample_size > 2) {
    if (batched_scan) {
      // The full peer matrix needs each sample scored against every other
      // sample's model: one banked scan per sample replaces sample_size - 1
      // serial automaton scans of the same symbols. Only the per-sample
      // maximum is consumed, so the prefilter's pruned argmax scan
      // (excluding the sample's own model) gives the same values.
      const FrozenBank peer_bank(sample_psts);
      if (prefilter) {
        const ScanPrefilter peer_prefilter(&peer_bank);
        ParallelForWeighted(sample_size, num_threads, sample_cost,
                            [&](size_t i) {
          peer_prefilter.BestModel(db.Symbols(sample_seq[i]), &peer_best[i],
                                   /*stats=*/nullptr, /*exclude_model=*/i);
        });
      } else {
        ParallelForWeighted(sample_size, num_threads, sample_cost,
                            [&](size_t i) {
          std::vector<SimilarityResult> row = peer_bank.ScanAll(
              db.Symbols(sample_seq[i]));
          for (size_t j = 0; j < sample_size; ++j) {
            if (j == i) continue;
            peer_best[i] = std::max(peer_best[i], row[j].log_sim);
          }
        });
      }
    } else {
      ParallelForWeighted(sample_size, num_threads, sample_cost,
                          [&](size_t i) {
        for (size_t j = 0; j < sample_size; ++j) {
          if (j == i) continue;
          double s =
              ComputeSimilarity(*sample_psts[j], db.Symbols(sample_seq[i])).log_sim;
          peer_best[i] = std::max(peer_best[i], s);
        }
      });
    }
  }
  std::vector<double> sorted_peer = peer_best;
  std::sort(sorted_peer.begin(), sorted_peer.end());
  const double eligibility_bar =
      sample_size > 2 ? sorted_peer[sample_size / 4]
                      : -std::numeric_limits<double>::infinity();

  // Highest similarity of each sample to anything already in T.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> best_sim(sample_size, kNegInf);
  if (!existing_models.empty()) {
    if (batched_scan) {
      const FrozenBank existing_bank(existing_models);
      if (prefilter) {
        const ScanPrefilter existing_prefilter(&existing_bank);
        ParallelForWeighted(sample_size, num_threads, sample_cost,
                            [&](size_t i) {
          existing_prefilter.BestModel(db.Symbols(sample_seq[i]),
                                       &best_sim[i]);
        });
      } else {
        ParallelForWeighted(sample_size, num_threads, sample_cost,
                            [&](size_t i) {
          std::vector<SimilarityResult> row = existing_bank.ScanAll(
              db.Symbols(sample_seq[i]));
          for (const SimilarityResult& sim : row) {
            best_sim[i] = std::max(best_sim[i], sim.log_sim);
          }
        });
      }
    } else {
      ParallelForWeighted(sample_size, num_threads, sample_cost,
                          [&](size_t i) {
        for (const auto& cluster : existing_models) {
          double s = ComputeSimilarity(*cluster, db.Symbols(sample_seq[i])).log_sim;
          best_sim[i] = std::max(best_sim[i], s);
        }
      });
    }
  }

  std::vector<bool> taken(sample_size, false);
  for (size_t round = 0; round < num_seeds; ++round) {
    // Pick the remaining eligible sample least similar to everything in T;
    // fall back to screened-out samples only when nothing else remains.
    size_t pick = sample_size;
    for (int pass = 0; pass < 2 && pick == sample_size; ++pass) {
      for (size_t i = 0; i < sample_size; ++i) {
        if (taken[i]) continue;
        if (pass == 0 && peer_best[i] < eligibility_bar) continue;
        if (pick == sample_size || best_sim[i] < best_sim[pick]) pick = i;
      }
    }
    if (pick == sample_size) break;
    taken[pick] = true;
    chosen.push_back(sample_seq[pick]);

    // The chosen seed joins T: refresh the remaining samples' best
    // similarity against its PST. One model only, so the per-sample
    // automaton scan is already the right shape.
    const FrozenPst& pst = *sample_psts[pick];
    ParallelForWeighted(sample_size, num_threads, sample_cost, [&](size_t i) {
      if (taken[i]) return;
      double s = ComputeSimilarity(pst, db.Symbols(sample_seq[i])).log_sim;
      best_sim[i] = std::max(best_sim[i], s);
    });
  }
  static obs::Counter& seeds_selected =
      obs::MetricsRegistry::Get().GetCounter("seeding.seeds_selected");
  static obs::Counter& samples_scored =
      obs::MetricsRegistry::Get().GetCounter("seeding.samples_scored");
  seeds_selected.Add(chosen.size());
  samples_scored.Add(sample_size);
  return chosen;
}

}  // namespace cluseq
