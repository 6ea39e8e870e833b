// Causal provenance tracing: every injected fault/policy event is stamped
// with a compact cause id, the tag rides next to the update as it moves
// through the router's decision path, outbound queue and links (a sideband —
// the wire bytes and MRT stream are provably unchanged), and the classifier
// aggregates tags into an attribution matrix: pathology class × root cause
// kind × hop depth, plus per-cause blast radius. This closes the paper's
// open question ("we can only speculate about the causes") in-sim: the
// simulator knows ground truth, so WWDup dominance can be attributed to the
// stateless-BGP internal resets and sprays that produced it.
//
// Determinism contract (DESIGN.md §14): cause ids are a dense per-partition
// sequence in allocation order — a pure function of (seed, config) because
// every allocation happens on the partition's single scheduler thread. All
// aggregation state is indexed by id or by fixed enum order; merges follow
// the fixed-order contract (exchanges in exchange order:
// ShardProvenance::Merge is an iri_det aggregation sink), so digests are
// byte-identical at any exchange thread count.
//
// Compiles out cleanly: -DIRI_PROVENANCE=OFF collapses CauseTag/CauseVec to
// empty stand-ins (zero bytes via [[no_unique_address]], no-op calls), so
// tagged structs and call sites need no #if guards of their own.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "netbase/time.h"
#include "obs/trace.h"

namespace iri::obs {

// Root cause taxonomy: one value per injected fault/policy mechanism the
// scenario drives, plus the emergent session events a router must label
// itself when no injected cause is in scope (hold-timer expiries, re-dumps
// after organic handshakes). Order is part of the digest format — append
// only.
enum class CauseKind : std::uint8_t {
  kNone = 0,          // unattributed (e.g. offline MRT replay)
  kBootstrap,         // initial table population at scenario start
  kMultihoming,       // backup-provider activation (growth schedule)
  kCustomerFlap,      // leased-line flap + repair
  kFailover,          // multihomed customer failover flap
  kPathChange,        // convergence transient onto the alternate path
  kCsuEpisode,        // CSU clock-drift oscillation episode
  kOscillation,       // internal route-selection oscillation episode
  kPolicyFluctuation, // MED/community churn
  kInternalReset,     // IGP/iBGP reset at a stateless provider
  kPathoSpray,        // the pathological small-ISP withdrawal spray
  kMaintenance,       // maintenance-window session reset
  kUpgrade,           // the infrastructure-upgrade incident
  kSessionReset,      // emergent: session down with no injected cause
  kSessionRedump,     // emergent: full-table dump on session establishment
  kCount,
};
inline constexpr std::size_t kNumCauseKinds =
    static_cast<std::size_t>(CauseKind::kCount);

const char* ToString(CauseKind kind);

#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
inline constexpr bool kProvenanceEnabled = true;
#else
inline constexpr bool kProvenanceEnabled = false;
#endif

#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED

// The sideband tag: which injected cause an update descends from, and how
// many router hops it has been re-propagated beyond the router where the
// cause was injected. id 0 is the null cause.
struct CauseTag {
  std::uint32_t id = 0;
  std::uint8_t kind = 0;  // CauseKind
  std::uint8_t depth = 0;

  bool IsNull() const { return id == 0; }
  CauseKind Kind() const { return static_cast<CauseKind>(kind); }
  std::uint8_t Depth() const { return depth; }
  // The tag one re-propagation hop further from the cause.
  CauseTag Bumped() const {
    CauseTag t = *this;
    if (t.depth < 0xFF) ++t.depth;
    return t;
  }

  friend bool operator==(const CauseTag&, const CauseTag&) = default;
};

// Per-message cause sideband, aligned with the wire event order of the
// UPDATE it accompanies: withdrawn prefixes first, then NLRI.
using CauseVec = std::vector<CauseTag>;

#else  // provenance compiled out: empty stand-ins, call sites unchanged.

struct CauseTag {
  bool IsNull() const { return true; }
  CauseKind Kind() const { return CauseKind::kNone; }
  std::uint8_t Depth() const { return 0; }
  CauseTag Bumped() const { return {}; }

  friend bool operator==(const CauseTag&, const CauseTag&) { return true; }
};

class CauseVec {
 public:
  void clear() {}
  void reserve(std::size_t) {}
  void push_back(const CauseTag&) {}
  bool empty() const { return true; }
  std::size_t size() const { return 0; }
  CauseTag operator[](std::size_t) const { return {}; }
};

#endif  // IRI_PROVENANCE_ENABLED

// What the injecting partition knows about each cause; indexed by id - 1 in
// ProvenanceContext::infos(). Allocation order == id order, so iterating
// the vector is iterating causes deterministically.
struct CauseInfo {
  CauseKind kind = CauseKind::kNone;
  TimePoint injected;
};

// Per-partition cause allocator and ambient-cause scope. Owned by the
// scenario (one per exchange partition); routers and links hold a pointer.
// Single-threaded by construction — each partition runs on one worker.
class ProvenanceContext {
 public:
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  // Allocates the next cause id for this partition and returns its tag
  // (depth 0). No-op (null tag) when provenance is compiled out.
  CauseTag Allocate(CauseKind kind, TimePoint now);

  // The ambient cause installed by the innermost live CauseScope, or the
  // null tag outside any scope.
  CauseTag Current() const { return current_; }

  std::size_t Count() const { return infos_.size(); }
  const std::vector<CauseInfo>& infos() const { return infos_; }

 private:
  friend class CauseScope;
  std::vector<CauseInfo> infos_;
  CauseTag current_;
  Tracer* tracer_ = nullptr;
};

// RAII ambient-cause scope: fault handlers wrap their injection calls so
// every Originate/Withdraw/link transition inside picks up the cause.
// Scopes nest; destruction restores the outer cause. Null context is a
// no-op (unit tests, replay).
class CauseScope {
 public:
  CauseScope(ProvenanceContext* ctx, CauseTag tag) : ctx_(ctx) {
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
    if (ctx_ != nullptr) {
      saved_ = ctx_->current_;
      ctx_->current_ = tag;
    }
#else
    (void)tag;
#endif
  }
  // Convenience: allocate a fresh cause and scope it in one step.
  CauseScope(ProvenanceContext* ctx, CauseKind kind, TimePoint now)
      : CauseScope(ctx, ctx != nullptr ? ctx->Allocate(kind, now)
                                       : CauseTag{}) {}
  ~CauseScope() {
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
    if (ctx_ != nullptr) ctx_->current_ = saved_;
#endif
  }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  ProvenanceContext* ctx_;
  CauseTag saved_;
};

// One classifier's attribution aggregate, fed at verdict time. The class
// axis is caller-defined (the classifier's taxonomy bins); obs stays below
// core in the layer order, so the category arrives as an index. Merge
// follows the fixed-order contract: exchanges 0..K-1 across partitions (an
// iri_det aggregation sink).
class ShardProvenance {
 public:
  static constexpr std::size_t kMaxClasses = 8;
  // Hop-depth histogram buckets 0..6 plus a 7+ overflow bucket.
  static constexpr std::size_t kDepthBuckets = 8;

  struct CauseStats {
    CauseKind kind = CauseKind::kNone;
    std::uint64_t updates = 0;   // classified events descending from it
    std::uint64_t prefixes = 0;  // distinct (prefix, peer) routes touched
    std::uint8_t max_depth = 0;
    TimePoint first_seen = TimePoint::Max();
    TimePoint last_seen;  // origin when never seen
  };

  // Records one classified event. `first_touch` is true the first time this
  // cause reaches the event's (prefix, peer) route state.
  void Record(std::size_t cls, const CauseTag& tag, TimePoint now,
              bool first_touch);

  // Fixed-order aggregation: callers sum exchanges in exchange order.
  void Merge(const ShardProvenance& other);

  std::uint64_t attributed() const;
  std::uint64_t unattributed() const;
  std::uint8_t depth_peak() const;
  std::uint64_t MatrixAt(std::size_t cls, std::size_t kind,
                         std::size_t depth_bucket) const;
  // Sums over the fixed enum order.
  std::uint64_t ClassTotal(std::size_t cls) const;
  std::uint64_t ClassAttributed(std::size_t cls) const;
  std::uint64_t DepthBucketTotal(std::size_t depth_bucket) const;
  const std::vector<CauseStats>& cause_stats() const;
  bool Empty() const { return attributed() == 0 && unattributed() == 0; }

 private:
#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED
  static constexpr std::size_t kCells =
      kMaxClasses * kNumCauseKinds * kDepthBuckets;
  static constexpr std::size_t CellIndex(std::size_t cls, std::size_t kind,
                                         std::size_t depth_bucket) {
    return (cls * kNumCauseKinds + kind) * kDepthBuckets + depth_bucket;
  }
  std::array<std::uint64_t, kCells> matrix_{};
  std::vector<CauseStats> stats_;  // index == cause id - 1
  std::uint64_t attributed_ = 0;
  std::uint64_t unattributed_ = 0;
  std::uint8_t depth_peak_ = 0;
#endif
};

// One exchange partition's complete attribution output: the classifier's
// observations joined with the partition's cause table. Per-exchange because
// cause ids are partition-local (the full CauseId identity is
// (exchange, kind, sequence)); report code renders them side by side.
struct ExchangeAttribution {
  ShardProvenance observed;
  std::vector<CauseInfo> causes;
};

#if !(defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED)
// Compiled-out bodies live here, inline, so the per-event call sites in the
// classifier and the codec hot paths fold to nothing instead of paying an
// out-of-line call into an empty function.
inline CauseTag ProvenanceContext::Allocate(CauseKind, TimePoint) {
  return {};
}
inline void ShardProvenance::Record(std::size_t, const CauseTag&, TimePoint,
                                    bool) {}
inline void ShardProvenance::Merge(const ShardProvenance&) {}
inline std::uint64_t ShardProvenance::attributed() const { return 0; }
inline std::uint64_t ShardProvenance::unattributed() const { return 0; }
inline std::uint8_t ShardProvenance::depth_peak() const { return 0; }
inline std::uint64_t ShardProvenance::MatrixAt(std::size_t, std::size_t,
                                               std::size_t) const {
  return 0;
}
inline std::uint64_t ShardProvenance::ClassTotal(std::size_t) const {
  return 0;
}
inline std::uint64_t ShardProvenance::ClassAttributed(std::size_t) const {
  return 0;
}
inline std::uint64_t ShardProvenance::DepthBucketTotal(std::size_t) const {
  return 0;
}
inline const std::vector<ShardProvenance::CauseStats>&
ShardProvenance::cause_stats() const {
  static const std::vector<CauseStats> kEmpty;
  return kEmpty;
}
#endif  // !IRI_PROVENANCE_ENABLED

}  // namespace iri::obs
