#include "hot/let.hpp"

#include <cstring>

#include "hot/traverse.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::hot {

Aabb local_aabb(const Bodies& b) {
  Aabb box;
  if (b.empty()) return box;
  box.lo = box.hi = b.pos[0];
  for (const Vec3d& x : b.pos) {
    for (int a = 0; a < 3; ++a) {
      box.lo[a] = std::min(box.lo[a], x[a]);
      box.hi[a] = std::max(box.hi[a], x[a]);
    }
  }
  return box;
}

LetImport exchange_let(parc::Rank& rank, const Tree& local_tree,
                       std::span<const Vec3d> local_pos,
                       std::span<const double> local_mass,
                       const std::vector<Aabb>& boxes, const Mac& mac) {
  const int p = rank.size();
  telemetry::Span span("let_exchange", telemetry::Phase::kLetExchange);

  // Wire format per destination: [u64 ncells][u64 nbodies][cells][bodies].
  std::vector<parc::Bytes> out(static_cast<std::size_t>(p));
  std::size_t bytes_sent = 0;
  InteractionLists lists;
  InteractionTally walk_tally;  // the push walk evaluates no interactions
  for (int d = 0; d < p; ++d) {
    if (d == rank.rank()) continue;
    // The MAC walk against the remote box, its lists turned into records.
    build_box_interaction_lists(local_tree, boxes[static_cast<std::size_t>(d)], mac,
                                lists, walk_tally);
    parc::Bytes& buf = out[static_cast<std::size_t>(d)];
    const std::uint64_t nc = lists.cells.size(), nb = lists.bodies.size();
    buf.resize(16 + nc * sizeof(CellRecord) + nb * sizeof(SourceRecord));
    std::memcpy(buf.data(), &nc, 8);
    std::memcpy(buf.data() + 8, &nb, 8);
    std::uint8_t* at = buf.data() + 16;
    for (std::uint32_t ci : lists.cells) {
      const Cell& c = local_tree.cells()[ci];
      const CellRecord r{c.com, c.mass, c.quad, c.b2, c.bmax};
      std::memcpy(at, &r, sizeof r);
      at += sizeof r;
    }
    for (std::uint32_t i : lists.bodies) {
      const SourceRecord r{local_pos[i], local_mass[i]};
      std::memcpy(at, &r, sizeof r);
      at += sizeof r;
    }
    bytes_sent += buf.size();
  }

  std::vector<parc::Bytes> in = rank.alltoallv(std::move(out));

  LetImport import;
  import.bytes_sent = bytes_sent;
  import.sinks = &local_tree;
  for (int s = 0; s < p; ++s) {
    if (s == rank.rank()) continue;
    const parc::Bytes& buf = in[static_cast<std::size_t>(s)];
    if (buf.size() < 16) continue;
    std::uint64_t nc = 0, nb = 0;
    std::memcpy(&nc, buf.data(), 8);
    std::memcpy(&nb, buf.data() + 8, 8);
    const std::size_t cells_at = 16;
    const std::size_t bodies_at = cells_at + nc * sizeof(CellRecord);
    const std::size_t old_c = import.cells.size(), old_b = import.bodies.size();
    import.cells.resize(old_c + nc);
    import.bodies.resize(old_b + nb);
    // An empty vector's data() may be null, and memcpy from or to null is
    // undefined even for zero bytes.
    if (nc > 0)
      std::memcpy(import.cells.data() + old_c, buf.data() + cells_at,
                  nc * sizeof(CellRecord));
    if (nb > 0)
      std::memcpy(import.bodies.data() + old_b, buf.data() + bodies_at,
                  nb * sizeof(SourceRecord));
  }
  span.set_arg(bytes_sent);
  telemetry::count(telemetry::Counter::kLetCellsImported, import.cells.size());
  telemetry::count(telemetry::Counter::kLetBodiesImported, import.bodies.size());
  return import;
}

}  // namespace hotlib::hot
