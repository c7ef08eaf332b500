#include "sparksim/workload.h"

#include <utility>

#include "common/error.h"

namespace robotune::sparksim {

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPageRank:
      return "PageRank";
    case WorkloadKind::kKMeans:
      return "KMeans";
    case WorkloadKind::kConnectedComponents:
      return "ConnectedComponents";
    case WorkloadKind::kLogisticRegression:
      return "LogisticRegression";
    case WorkloadKind::kTeraSort:
      return "TeraSort";
  }
  return "?";
}

std::string short_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPageRank:
      return "PR";
    case WorkloadKind::kKMeans:
      return "KM";
    case WorkloadKind::kConnectedComponents:
      return "CC";
    case WorkloadKind::kLogisticRegression:
      return "LR";
    case WorkloadKind::kTeraSort:
      return "TS";
  }
  return "?";
}

std::vector<WorkloadKind> all_workloads() {
  return {WorkloadKind::kPageRank, WorkloadKind::kKMeans,
          WorkloadKind::kConnectedComponents,
          WorkloadKind::kLogisticRegression, WorkloadKind::kTeraSort};
}

namespace {

WorkloadSpec make_pagerank(int dataset) {
  // Table 1: 5 / 7.5 / 10 million pages; ~1.2 GB of edge list per million.
  const double pages_m[] = {5.0, 7.5, 10.0};
  const double input = pages_m[dataset - 1] * 1.2;
  WorkloadSpec w;
  w.kind = WorkloadKind::kPageRank;
  w.input_gb = input;
  w.cached_gb = input * 6.0;  // adjacency lists as Java objects (5-10x on-disk)
  w.iterations = 8;
  w.setup_stages = {
      {.name = "load-edges",
       .input_gb = input,
       .shuffle_write_gb = input * 0.6,
       .cpu_s_per_gb = 4.0,
       .serialization_intensity = 0.7,
       .working_set_expansion = 3.0,
       .task_skew = 0.12},
      {.name = "build-links",
       .shuffle_read_gb = input * 0.6,
       .cpu_s_per_gb = 5.0,
       .serialization_intensity = 0.6,
       .writes_cache = true,
       .working_set_expansion = 6.0,
       .task_skew = 0.16},
  };
  w.iteration_stages = {
      {.name = "contribs",
       .input_gb = input,
       .shuffle_write_gb = input * 1.2,
       .cpu_s_per_gb = 9.0,
       .serialization_intensity = 0.8,
       .reads_cached = true,
       .working_set_expansion = 4.0,
       .task_skew = 0.18},
      {.name = "aggregate-ranks",
       .shuffle_read_gb = input * 1.2,
       .cpu_s_per_gb = 6.0,
       .serialization_intensity = 0.7,
       .working_set_expansion = 12.0,  // hash join of adjacency + ranks
       .task_skew = 0.20},
  };
  return w;
}

WorkloadSpec make_connected_components(int dataset) {
  const double pages_m[] = {5.0, 7.5, 10.0};
  const double input = pages_m[dataset - 1] * 1.2;
  WorkloadSpec w;
  w.kind = WorkloadKind::kConnectedComponents;
  w.input_gb = input;
  w.cached_gb = input * 5.5;
  w.iterations = 7;
  w.setup_stages = {
      {.name = "load-graph",
       .input_gb = input,
       .shuffle_write_gb = input * 0.5,
       .cpu_s_per_gb = 4.0,
       .serialization_intensity = 0.7,
       .working_set_expansion = 3.0,
       .task_skew = 0.12},
      {.name = "init-components",
       .shuffle_read_gb = input * 0.5,
       .cpu_s_per_gb = 3.0,
       .serialization_intensity = 0.6,
       .writes_cache = true,
       .working_set_expansion = 6.0,
       .task_skew = 0.16},
  };
  w.iteration_stages = {
      {.name = "propagate-labels",
       .input_gb = input,
       .shuffle_write_gb = input * 1.0,
       .cpu_s_per_gb = 6.0,
       .serialization_intensity = 0.8,
       .reads_cached = true,
       .working_set_expansion = 4.0,
       .task_skew = 0.19},
      {.name = "merge-labels",
       .shuffle_read_gb = input * 1.0,
       .cpu_s_per_gb = 4.0,
       .serialization_intensity = 0.7,
       .working_set_expansion = 12.0,
       .task_skew = 0.19},
  };
  return w;
}

WorkloadSpec make_kmeans(int dataset) {
  // Table 1: 200 / 300 / 400 million points, ~100 B per point on disk.
  const double points_m[] = {200.0, 300.0, 400.0};
  const double input = points_m[dataset - 1] * 0.1;
  WorkloadSpec w;
  w.kind = WorkloadKind::kKMeans;
  w.input_gb = input;
  w.cached_gb = input * 5.0;  // boxed java vectors with object headers
  w.iterations = 10;
  w.setup_stages = {
      {.name = "load-points",
       .input_gb = input,
       .cpu_s_per_gb = 3.0,
       .serialization_intensity = 0.4,
       .writes_cache = true,
       .working_set_expansion = 0.8,
       .task_skew = 0.10},
  };
  w.iteration_stages = {
      {.name = "assign-clusters",
       .input_gb = input,
       .shuffle_write_gb = 0.002,
       .cpu_s_per_gb = 36.0,  // distance to k centroids per point
       .serialization_intensity = 0.05,
       .reads_cached = true,
       .broadcast_gb = 0.05,  // centroid matrix to every executor
       .working_set_expansion = 0.15,
       .task_skew = 0.10},
      {.name = "update-centroids",
       .shuffle_read_gb = 0.002,
       .cpu_s_per_gb = 2.0,
       .serialization_intensity = 0.3,
       .working_set_expansion = 0.5,
       .task_skew = 0.08},
  };
  return w;
}

WorkloadSpec make_logistic_regression(int dataset) {
  // Table 1: 100 / 200 / 300 million examples, ~200 B per example.
  const double examples_m[] = {100.0, 200.0, 300.0};
  const double input = examples_m[dataset - 1] * 0.2;
  WorkloadSpec w;
  w.kind = WorkloadKind::kLogisticRegression;
  w.input_gb = input;
  w.cached_gb = input * 0.5;  // compact dense feature vectors
  w.iterations = 5;
  w.setup_stages = {
      {.name = "load-examples",
       .input_gb = input,
       .cpu_s_per_gb = 2.5,
       .serialization_intensity = 0.4,
       .writes_cache = true,
       .working_set_expansion = 0.6,
       .task_skew = 0.08},
  };
  w.iteration_stages = {
      {.name = "gradient",
       .input_gb = input,
       .shuffle_write_gb = input * 0.05,  // per-partition gradient blocks
       .cpu_s_per_gb = 10.0,
       .serialization_intensity = 0.25,
       .reads_cached = true,
       .broadcast_gb = 0.02,  // weight vector to every executor
       .working_set_expansion = 0.35,
       .task_skew = 0.10},
      {.name = "update-weights",
       .shuffle_read_gb = input * 0.05,
       .cpu_s_per_gb = 2.0,
       .serialization_intensity = 0.4,
       .working_set_expansion = 0.8,
       .task_skew = 0.08},
  };
  return w;
}

WorkloadSpec make_terasort(int dataset) {
  // Table 1: 20 / 30 / 40 GB.
  const double sizes[] = {20.0, 30.0, 40.0};
  const double input = sizes[dataset - 1];
  WorkloadSpec w;
  w.kind = WorkloadKind::kTeraSort;
  w.input_gb = input;
  w.cached_gb = 0.0;
  w.iterations = 1;
  w.setup_stages = {};
  w.iteration_stages = {
      {.name = "map-sort",
       .input_gb = input,
       .shuffle_write_gb = input,
       .cpu_s_per_gb = 4.0,
       .serialization_intensity = 0.9,
       .working_set_expansion = 4.0,  // record objects during in-heap sort
       .task_skew = 0.12},
      {.name = "reduce-write",
       .shuffle_read_gb = input,
       .cpu_s_per_gb = 2.5,
       .serialization_intensity = 0.8,
       .output_gb = input,
       .working_set_expansion = 4.0,
       .task_skew = 0.12},
  };
  return w;
}

}  // namespace

WorkloadSpec make_workload(WorkloadKind kind, int dataset) {
  require(dataset >= 1 && dataset <= 3, "make_workload: dataset must be 1-3");
  WorkloadSpec w = [&] {
    switch (kind) {
      case WorkloadKind::kPageRank:
        return make_pagerank(dataset);
      case WorkloadKind::kKMeans:
        return make_kmeans(dataset);
      case WorkloadKind::kConnectedComponents:
        return make_connected_components(dataset);
      case WorkloadKind::kLogisticRegression:
        return make_logistic_regression(dataset);
      case WorkloadKind::kTeraSort:
        return make_terasort(dataset);
    }
    throw InvalidArgument("make_workload: unknown kind");
  }();
  std::string label = "D";
  label += std::to_string(dataset);
  w.dataset_label = std::move(label);
  return w;
}

}  // namespace robotune::sparksim
