#ifndef SUBSIM_GRAPH_GRAPH_IO_H_
#define SUBSIM_GRAPH_GRAPH_IO_H_

#include <istream>
#include <string>

#include "subsim/graph/types.h"
#include "subsim/util/status.h"

namespace subsim {

/// Parses a whitespace-separated SNAP-style edge list, one directed edge
/// "src dst [weight]" per line. A missing weight column reads as 0 (assign a
/// WeightModel afterwards). Lines starting with '#' or '%' are skipped.
/// Node ids may be arbitrary non-negative integers; they are kept as-is,
/// and `num_nodes` becomes max(id) + 1. Fails with IoError /
/// InvalidArgument on unreadable files or malformed lines.
Result<EdgeList> ReadEdgeListText(const std::string& path);

/// Stream-level core of ReadEdgeListText. `origin` labels error messages
/// (a path for files, "<memory>" for in-memory buffers). Parsing from a
/// stream keeps the untrusted-input surface testable without touching the
/// filesystem — the fuzz harnesses drive this directly.
Result<EdgeList> ParseEdgeListText(std::istream& in,
                                   const std::string& origin = "<stream>");

/// Writes "src dst weight" lines. Inverse of ReadEdgeListText.
Status WriteEdgeListText(const EdgeList& list, const std::string& path);

}  // namespace subsim

#endif  // SUBSIM_GRAPH_GRAPH_IO_H_
