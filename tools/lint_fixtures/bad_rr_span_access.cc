// ANALYZE-AS: src/subsim/algo/example_rr.cc
// Fixture: direct span access into an RR collection outside the rrset
// layer. The arena may be delta-varint encoded, so there is no contiguous
// NodeId span — consumers iterate through View(id) and RrSetView. The
// classes are re-declared locally (instead of including the real header,
// which no longer has Set at all) so the ast engine can resolve the
// member the way it would against a stale checkout.

namespace subsim {

using NodeId = unsigned;

class RrCollection {
 public:
  const NodeId* Set(unsigned id) const;
};

class RrCollectionView {
 public:
  const NodeId* Set(unsigned id) const;
};

class Gauge {
 public:
  void Set(double value);
};

NodeId FirstNodeTheOldWay(const RrCollection& collection) {
  return collection.Set(0)[0];  // ANALYZE-EXPECT: rr-span-access
}

NodeId FirstNodeFromAView(const RrCollectionView& snapshot) {
  return snapshot.Set(1)[0];  // ANALYZE-EXPECT: rr-span-access
}

void UnrelatedSetMethodsStayClean(Gauge& gauge) {
  gauge.Set(1.0);  // a metrics gauge — different class, no finding
}

}  // namespace subsim
