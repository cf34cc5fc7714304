// ANALYZE-AS: src/subsim/coverage/example_rr.cc
// Fixture: direct span access into an RR collection outside the rrset
// layer. The arena may be delta-varint encoded, so there is no contiguous
// NodeId span to hand out — consumers go through View(id) and the
// RrSetView cursor. Never compiled — checked only by --self-test. The
// classes are declared locally, as in bad_rr_span_access.cc, so the ast
// engine can resolve each Set member's class.

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

class BitVector {
 public:
  void Set(unsigned bit);
};

NodeId FirstNodeTheOldWay(const RrCollection& collection) {
  return collection.Set(0)[0];  // ANALYZE-EXPECT: rr-span-access
}

NodeId FirstNodeFromAView(const RrCollectionView& snapshot) {
  return snapshot.Set(0)[0];  // ANALYZE-EXPECT: rr-span-access
}

void UnrelatedSetMethodsStayClean(Gauge gauge, BitVector* covered) {
  gauge.Set(1.0);      // a metrics gauge, not an RR collection
  covered->Set(42);    // a bitmap, not an RR collection
}

NodeId SuppressedWithAReason(const RrCollection& collection) {
  // SUBSIM-NOLINT-NEXTLINE(rr-span-access): fixture shows a reasoned suppression passes
  return collection.Set(0)[0];
}

}  // namespace subsim
