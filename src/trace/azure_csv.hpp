#pragma once

#include <string>

#include "trace/workload.hpp"

/// Importer for the public Azure Functions 2019 dataset
/// (https://github.com/Azure/AzurePublicDataset), so the experiments can be
/// re-run against the *real* trace when it is available. Follows the
/// paper's preparation rules exactly (§"Adapting the Azure Functions
/// Trace"):
///  - functions with fewer than two invocations in the day are dropped,
///  - application-level memory is split evenly across the app's functions,
///  - a single invocation in a minute bucket lands at the start of the
///    minute; k invocations are equally spaced across it,
///  - cold-start (init) cost is estimated as Maximum - Average runtime.
///
/// Expected file schemas (day-1 files of the dataset):
///  invocations: HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
///  durations:   HashOwner,HashApp,HashFunction,Average,Count,Minimum,
///               Maximum,...   (milliseconds; extra columns ignored)
///  memory:      HashOwner,HashApp,SampleCount,AverageAllocatedMb,...
namespace ilu {

struct AzureCsvOptions {
  /// Functions appearing in the invocations file but missing from the
  /// durations file get this warm time.
  Duration default_warm = secs(1);
  /// Lower bound on the estimated init cost (Maximum - Average can be 0).
  Duration min_init = msecs(50);
  /// Memory assigned when the app is missing from the memory file.
  std::uint32_t default_app_mem_mb = 170;
  std::uint32_t min_fn_mem_mb = 32;
  std::uint32_t max_fn_mem_mb = 4096;
  /// Keep at most this many functions (0 = all), selected in file order —
  /// sampling beyond that is the caller's business (see AzureTraceModel's
  /// samplers for the paper's RARE/REPRESENTATIVE/RANDOM schemes).
  std::size_t max_functions = 0;
};

/// Build a Trace from the three dataset CSVs. Throws std::runtime_error on
/// unreadable files or malformed headers, and std::out_of_range when an
/// event falls outside the packed-key range (more than Trace::kMaxFn + 1
/// functions, or a minute beyond ~100 days).
Trace load_azure_dataset(const std::string& invocations_csv,
                         const std::string& durations_csv,
                         const std::string& memory_csv,
                         const AzureCsvOptions& opts = {});

}  // namespace ilu
