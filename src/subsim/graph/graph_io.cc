#include "subsim/graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <string>

#include "subsim/util/string_util.h"

namespace subsim {

Result<EdgeList> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  return ParseEdgeListText(in, path);
}

Result<EdgeList> ParseEdgeListText(std::istream& in,
                                   const std::string& origin) {
  EdgeList list;
  NodeId max_id = 0;
  bool any_node = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#' || stripped[0] == '%') {
      continue;
    }
    const auto fields = SplitAndTrim(stripped, " \t,");
    if (fields.size() < 2) {
      return Status::InvalidArgument(origin + ":" + std::to_string(line_no) +
                                     ": expected 'src dst [weight]'");
    }
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!ParseUint64(fields[0], &src) || !ParseUint64(fields[1], &dst)) {
      return Status::InvalidArgument(origin + ":" + std::to_string(line_no) +
                                     ": malformed node id");
    }
    if (src > 0xFFFFFFFEull || dst > 0xFFFFFFFEull) {
      return Status::InvalidArgument(origin + ":" + std::to_string(line_no) +
                                     ": node id exceeds 32-bit range");
    }
    double weight = 0.0;
    if (fields.size() >= 3) {
      if (!ParseDouble(fields[2], &weight)) {
        return Status::InvalidArgument(origin + ":" + std::to_string(line_no) +
                                       ": malformed weight");
      }
    }
    const NodeId s = static_cast<NodeId>(src);
    const NodeId d = static_cast<NodeId>(dst);
    list.edges.push_back(Edge{s, d, weight});
    max_id = std::max(max_id, std::max(s, d));
    any_node = true;
  }
  if (in.bad()) {
    return Status::IoError("read error on " + origin);
  }
  list.num_nodes = any_node ? max_id + 1 : 0;
  return list;
}

Status WriteEdgeListText(const EdgeList& list, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out << "# subsim edge list: " << list.num_nodes << " nodes, "
      << list.edges.size() << " edges\n";
  for (const Edge& e : list.edges) {
    out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IoError("write error on " + path);
  }
  return Status::Ok();
}

}  // namespace subsim
