/**
 * @file
 * Workload and model builders shared by the command-line tools, so
 * every tool reads the same flags into the same graph and model:
 *
 *   buildWorkload: ditile_run and ditile_inspect
 *     --dataset=PM|RD|MB|TW|WD|FK --scale=F   (Table-1 workloads)
 *     --vertices=N --edges=M --features=F     (synthetic graph)
 *     --dissimilarity=D --snapshots=T --seed=S
 *   buildModel: ditile_run, ditile_serve and ditile_inspect
 *     --rnn=lstm|gru --aggregator=gcn|sage|gin
 */

#ifndef DITILE_TOOLS_TOOL_INPUTS_HH
#define DITILE_TOOLS_TOOL_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "graph/datasets.hh"
#include "graph/generator.hh"
#include "graph/io.hh"
#include "model/dgnn_config.hh"

namespace ditile::tools {

/**
 * The workload the flags name: the given snapshot edge-list files
 * when there are any, else a --dataset, else a synthetic graph.
 */
inline graph::DynamicGraph
buildWorkload(const CliFlags &flags,
              const std::vector<std::string> &snapshot_files = {})
{
    if (!snapshot_files.empty()) {
        return graph::readSnapshotFiles(
            "disk", snapshot_files,
            static_cast<int>(flags.getInt("features", 128)));
    }
    if (flags.has("dataset")) {
        graph::DatasetOptions options;
        options.scale = flags.getDouble("scale", 0.0);
        options.numSnapshots = static_cast<SnapshotId>(
            flags.getInt("snapshots", 8));
        options.dissimilarity = flags.getDouble("dissimilarity", 0.0);
        options.seed = static_cast<std::uint64_t>(
            flags.getInt("seed", 0));
        return graph::makeDataset(flags.getString("dataset", "WD"),
                                  options);
    }
    graph::EvolutionConfig config;
    config.name = "synthetic";
    config.numVertices = static_cast<VertexId>(
        flags.getInt("vertices", 2000));
    config.numEdges = flags.getInt("edges", 16000);
    config.numSnapshots = static_cast<SnapshotId>(
        flags.getInt("snapshots", 8));
    config.dissimilarity = flags.getDouble("dissimilarity", 0.10);
    config.featureDim = static_cast<int>(flags.getInt("features",
                                                      128));
    config.seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
    return graph::generateDynamicGraph(config);
}

/** The DGNN model shape the --rnn and --aggregator flags name. */
inline model::DgnnConfig
buildModel(const CliFlags &flags)
{
    model::DgnnConfig config;
    const auto rnn = flags.getString("rnn", "lstm");
    if (rnn == "gru")
        config.rnn = model::RnnKind::Gru;
    else if (rnn != "lstm")
        DITILE_FATAL("unknown --rnn '", rnn, "'");
    const auto agg = flags.getString("aggregator", "gcn");
    if (agg == "sage")
        config.aggregator = model::GnnAggregator::SageMean;
    else if (agg == "gin")
        config.aggregator = model::GnnAggregator::GinSum;
    else if (agg != "gcn")
        DITILE_FATAL("unknown --aggregator '", agg, "'");
    return config;
}

} // namespace ditile::tools

#endif // DITILE_TOOLS_TOOL_INPUTS_HH
