// Umbrella header: the public API of the CLUSEQ library.
//
// Quick start:
//
//   #include "cluseq/cluseq.h"
//
//   cluseq::SequenceDatabase db;
//   db.AddText("abcabcabd", "s0");
//   ...
//   cluseq::CluseqOptions options;
//   options.initial_clusters = 2;
//   cluseq::ClusteringResult result;
//   cluseq::Status st = cluseq::RunCluseq(db, options, &result);

#ifndef CLUSEQ_CLUSEQ_CLUSEQ_H_
#define CLUSEQ_CLUSEQ_CLUSEQ_H_

#include "baselines/baseline_clusterers.h"
#include "baselines/block_edit_distance.h"
#include "baselines/edit_distance.h"
#include "baselines/hmm.h"
#include "baselines/kmedoids.h"
#include "baselines/qgram.h"
#include "core/checkpoint.h"
#include "core/cluseq.h"
#include "core/cluster.h"
#include "core/online_scorer.h"
#include "core/prefilter.h"
#include "core/seeding.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "eval/contingency.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/prometheus.h"
#include "obs/report_diff.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "pst/pst_dot.h"
#include "seq/alphabet.h"
#include "seq/background_model.h"
#include "seq/io.h"
#include "seq/seqdb_reader.h"
#include "seq/seqdb_writer.h"
#include "seq/sequence.h"
#include "seq/sequence_database.h"
#include "seq/sequence_store.h"
#include "seq/suffix_array.h"
#include "synth/dataset.h"
#include "synth/generator_model.h"
#include "synth/language_like.h"
#include "synth/protein_like.h"
#include "util/build_info.h"
#include "util/cancellation.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

#endif  // CLUSEQ_CLUSEQ_CLUSEQ_H_
