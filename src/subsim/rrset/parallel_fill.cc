#include "subsim/rrset/parallel_fill.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "subsim/rrset/batch_kernel.h"
#include "subsim/util/check.h"
#include "subsim/util/threading.h"

namespace subsim {

namespace {

/// Sets per scheduler chunk. Small enough to load-balance heavy-tailed set
/// sizes across workers, large enough that the atomic claim is noise.
constexpr std::size_t kChunkSize = 64;

/// Scheduler chunks per batched-kernel claim. The batched kernel keeps a
/// pool of in-flight lanes and reseeds a lane the moment its set finishes,
/// so it wants long runs of consecutive set indices — with 64-set claims
/// the lane pool would drain at every chunk boundary and the heavy tail of
/// the set-size distribution would run with no memory-level parallelism.
/// Claim granularity only affects scheduling: the chunk table still maps
/// every 64-set chunk for the index-order merge, so the output bytes are
/// unchanged (and still thread-count invariant).
constexpr std::size_t kBatchedChunksPerClaim = 16;

/// One worker's output: flattened sets plus their boundaries and flags.
struct WorkerBuffer {
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint8_t> hits;
  /// Final generator stats; flushed to metrics after the join.
  RrGenStats stats;
};

/// Where a chunk's sets landed. Written once by the claiming worker, read
/// by the merge after the join.
struct ChunkRef {
  unsigned worker = 0;
  std::size_t set_begin = 0;   // index into the worker's sizes/hits
  std::size_t node_begin = 0;  // index into the worker's nodes
  std::size_t count = 0;
};

}  // namespace

FillKernel ResolveFillKernel(FillKernel kernel) {
  return kernel == FillKernel::kAuto ? FillKernel::kBatched : kernel;
}

Result<FillKernel> ParseFillKernel(const std::string& name) {
  if (name == "auto") return FillKernel::kAuto;
  if (name == "scalar") return FillKernel::kScalar;
  if (name == "batched") return FillKernel::kBatched;
  return Status::InvalidArgument("unknown fill kernel: " + name);
}

const char* FillKernelName(FillKernel kernel) {
  switch (kernel) {
    case FillKernel::kAuto:
      return "auto";
    case FillKernel::kScalar:
      return "scalar";
    case FillKernel::kBatched:
      return "batched";
  }
  return "?";
}

Status FillCollection(const FillRequest& request, RrCollection* collection) {
  SUBSIM_CHECK(request.graph != nullptr, "FillRequest.graph must be set");
  SUBSIM_CHECK(request.rng != nullptr, "FillRequest.rng must be set");
  SUBSIM_CHECK(collection != nullptr, "FillCollection needs a collection");
  if (request.count > kMaxRrSets - collection->num_sets()) {
    return Status::OutOfRange(
        "fill of " + std::to_string(request.count) + " RR sets onto " +
        std::to_string(collection->num_sets()) +
        " would exceed the per-collection limit of " +
        std::to_string(kMaxRrSets));
  }

  const FillKernel kernel = ResolveFillKernel(request.kernel);

  // Build (or fetch) the graph's shared sampling state up front. It is
  // where a kind rejects a graph (e.g. LT weight sums), so the per-worker
  // kernels below, which only allocate scratch over it, cannot fail after
  // threads have started.
  SUBSIM_RETURN_IF_ERROR(PrepareSamplingState(request.kind, *request.graph));
  const std::size_t count = request.count;
  if (count == 0) {
    return Status::Ok();
  }

  unsigned num_threads = ResolveNumThreads(request.num_threads);
  if (num_threads > count) {
    num_threads = static_cast<unsigned>(count);
  }

  const std::uint64_t base_seed = request.rng->base_seed;
  const std::uint64_t first_index = request.rng->next_index;
  const std::size_t num_chunks = (count + kChunkSize - 1) / kChunkSize;

  std::vector<ChunkRef> chunks(num_chunks);
  std::vector<WorkerBuffer> buffers(num_threads);
  std::atomic<std::size_t> next_chunk{0};

  // Workers claim chunks of consecutive set indices off the shared counter.
  // Set `first_index + i` is a pure function of `(base_seed, first_index +
  // i)` — no worker-local RNG state — so which worker generates it is
  // irrelevant to its bytes, and the chunk table lets the merge restore
  // index order exactly. The batched worker hands whole chunks to the
  // kernel, which writes the SoA buffer directly; the scalar worker copies
  // each set out of its scratch vector. Both append the same bytes.
  const auto claim = [&](unsigned t, std::size_t* begin, std::size_t* end) {
    const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks) {
      return false;
    }
    const WorkerBuffer& buffer = buffers[t];
    *begin = chunk * kChunkSize;
    *end = std::min(*begin + kChunkSize, count);
    ChunkRef& ref = chunks[chunk];
    ref.worker = t;
    ref.set_begin = buffer.sizes.size();
    ref.node_begin = buffer.nodes.size();
    ref.count = *end - *begin;
    return true;
  };

  const auto scalar_worker = [&](unsigned t, RrGenerator* generator) {
    generator->SetSentinels(request.sentinels);
    WorkerBuffer& buffer = buffers[t];
    std::vector<NodeId> scratch;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (claim(t, &begin, &end)) {
      for (std::size_t i = begin; i < end; ++i) {
        Rng set_rng = Rng::Substream(base_seed, first_index + i);
        const bool hit = generator->Generate(set_rng, &scratch);
        buffer.nodes.insert(buffer.nodes.end(), scratch.begin(),
                            scratch.end());
        buffer.sizes.push_back(static_cast<std::uint32_t>(scratch.size()));
        buffer.hits.push_back(hit ? 1 : 0);
      }
    }
    buffer.stats = generator->stats();
  };

  // The batched worker claims several consecutive chunks at once (see
  // kBatchedChunksPerClaim) and hands the kernel the whole run, so its
  // lane pool stays full across what would otherwise be chunk boundaries.
  // The per-chunk table entries are back-filled from the sizes the kernel
  // appended, restoring exactly the mapping the merge expects.
  const auto batched_worker = [&](unsigned t, BatchRrKernel* batch) {
    batch->SetSentinels(request.sentinels);
    WorkerBuffer& buffer = buffers[t];
    const BatchChunkSink sink{&buffer.nodes, &buffer.sizes, &buffer.hits};
    while (true) {
      const std::size_t chunk_begin =
          next_chunk.fetch_add(kBatchedChunksPerClaim,
                               std::memory_order_relaxed);
      if (chunk_begin >= num_chunks) {
        break;
      }
      const std::size_t chunk_end =
          std::min(chunk_begin + kBatchedChunksPerClaim, num_chunks);
      const std::size_t begin = chunk_begin * kChunkSize;
      const std::size_t end =
          std::min(chunk_end * kChunkSize, count);
      std::size_t set_cursor = buffer.sizes.size();
      std::size_t node_cursor = buffer.nodes.size();
      batch->GenerateChunk(base_seed, first_index + begin, end - begin, sink);
      for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
        ChunkRef& ref = chunks[c];
        ref.worker = t;
        ref.set_begin = set_cursor;
        ref.node_begin = node_cursor;
        ref.count = std::min(kChunkSize, count - c * kChunkSize);
        for (std::size_t i = 0; i < ref.count; ++i) {
          node_cursor += buffer.sizes[set_cursor++];
        }
      }
    }
    buffer.stats = batch->stats();
  };

  const auto run_worker = [&](unsigned t) {
    if (kernel == FillKernel::kScalar) {
      Result<std::unique_ptr<RrGenerator>> generator =
          MakeRrGenerator(request.kind, *request.graph);
      SUBSIM_CHECK(generator.ok(), "generator over prepared state failed");
      scalar_worker(t, generator->get());
      return;
    }
    Result<std::unique_ptr<BatchRrKernel>> batch =
        BatchRrKernel::Create(request.kind, *request.graph);
    SUBSIM_CHECK(batch.ok(), "kernel over prepared state failed");
    batched_worker(t, batch->get());
  };

  if (num_threads == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads - 1);
    for (unsigned t = 1; t < num_threads; ++t) {
      threads.emplace_back([&, t] { run_worker(t); });
    }
    run_worker(0);
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  MetricsRegistry::HistogramHandle set_size;
  if (request.obs.metrics != nullptr) {
    set_size = request.obs.metrics->Histogram("rr.set_size");
  }

  // Index-order merge: chunk c holds sets [c*kChunkSize, ...), so walking
  // the chunk table front to back appends the stream in index order no
  // matter which worker produced each chunk. The inverted index is then
  // extended once for the whole fill.
  for (const ChunkRef& ref : chunks) {
    const WorkerBuffer& buffer = buffers[ref.worker];
    std::size_t offset = ref.node_begin;
    for (std::size_t i = 0; i < ref.count; ++i) {
      const std::uint32_t size = buffer.sizes[ref.set_begin + i];
      collection->Add(
          std::span<const NodeId>(buffer.nodes.data() + offset, size),
          buffer.hits[ref.set_begin + i] != 0);
      set_size.Observe(size);
      offset += size;
    }
  }
  collection->IndexNewSets();
  for (const WorkerBuffer& buffer : buffers) {
    FlushRrGenStatsDelta(RrGenStats(), buffer.stats, request.obs.metrics);
  }
  if (request.obs.metrics != nullptr) {
    // Encoded footprint of the set arena just extended — alongside
    // `rr.set_size` this is what the compression-ratio bench and the
    // serving byte budget observe (see RrEncoding).
    request.obs.metrics->Gauge("rr.arena_bytes")
        .Set(static_cast<double>(collection->arena_bytes()));
  }

  request.rng->next_index = first_index + count;
  return Status::Ok();
}

}  // namespace subsim
