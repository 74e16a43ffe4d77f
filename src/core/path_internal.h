// Implementation helpers shared by MappingPath and TuplePath: undirected
// adjacency over the rooted representation and rooting-independent tree
// encoding. Internal to mweaver_core; not part of the public API.
#ifndef MWEAVER_CORE_PATH_INTERNAL_H_
#define MWEAVER_CORE_PATH_INTERNAL_H_

#include <span>
#include <string>
#include <vector>

#include "core/mapping_path.h"

namespace mweaver::core::internal {

/// One undirected adjacency entry derived from the rooted tree.
struct AdjEdge {
  VertexId neighbor;
  storage::ForeignKeyId fk;
  /// Whether `neighbor` occupies the FK's referencing ("from") side.
  bool neighbor_is_from_side;
};

/// \brief Undirected adjacency lists of a rooted path-vertex array. Spans
/// so std::vector (MappingPath) storage works.
std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const PathVertex> vertices);

/// \brief SoA overload over TuplePath's parallel vertex lanes (parent, fk,
/// orientation); identical output to the AoS overload.
std::vector<std::vector<AdjEdge>> BuildAdjacency(
    std::span<const VertexId> parents,
    std::span<const storage::ForeignKeyId> fks,
    std::span<const unsigned char> from_side);

/// \brief AHU-style encoding of the subtree of `v` entered from `parent`
/// (pass kNoVertex for the whole tree), given one label per vertex.
std::string EncodeFrom(const std::vector<std::vector<AdjEdge>>& adj,
                       const std::vector<std::string>& labels, VertexId v,
                       VertexId parent);

/// \brief Minimum of EncodeFrom over all rootings: canonical form of the
/// unrooted labeled tree.
std::string CanonicalEncoding(std::span<const PathVertex> vertices,
                              const std::vector<std::string>& labels);

/// \brief Vertices on the unique simple path from `from` to `to` inclusive.
std::vector<VertexId> SimplePath(const std::vector<std::vector<AdjEdge>>& adj,
                                 VertexId from, VertexId to);

}  // namespace mweaver::core::internal

#endif  // MWEAVER_CORE_PATH_INTERNAL_H_
