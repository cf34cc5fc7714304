// ANALYZE-AS: src/subsim/graph/example_io.cc
// Fixture: dropped Status/Result returns must be flagged; consumed ones
// must not. Never compiled — checked only by subsim_analyze.py --self-test.
#include <string>

namespace subsim {

struct Status {
  bool ok() const;
};

template <typename T>
struct Result {
  bool ok() const;
};

Status SaveCheckpoint(const std::string& path);
Status Flush();
Result<int> CountEdges(const std::string& path);

namespace writer {
Status Sync();
}  // namespace writer

void Caller(const std::string& path) {
  SaveCheckpoint(path);  // ANALYZE-EXPECT: status-discarded
  Flush();  // ANALYZE-EXPECT: status-discarded
  CountEdges(path);  // ANALYZE-EXPECT: status-discarded
  writer::Sync();  // ANALYZE-EXPECT: status-discarded

  // All consumed: no findings.
  Status s = SaveCheckpoint(path);
  (void)s;
  (void)Flush();
  if (!writer::Sync().ok()) {
    return;
  }
  const Status again = Flush();
  (void)again;
}

}  // namespace subsim
