#include "gate/lanes.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>

#include "common/error.hpp"
#include "gate/lanes_impl.hpp"
#include "obs/report.hpp"

namespace bibs::gate {

// The wide backend lives in its own TU so its kernels compile under the
// AVX-512 flags; that TU is only built (and its factory only linked) when
// the compiler accepts the flags — see src/gate/CMakeLists.txt.
namespace detail {
#ifdef BIBS_LANES_AVX512
const LaneBackend* avx512_backend();
#endif
}  // namespace detail

namespace {

bool always_supported() { return true; }

std::string compiled_in_names() {
  std::string names;
  for (const LaneBackend* b : all_lane_backends()) {
    if (!names.empty()) names += ", ";
    names += b->name;
  }
  return names;
}

const LaneBackend* resolve_active() {
  if (const char* env = std::getenv("BIBS_LANES"); env && *env) {
    const LaneBackend* b = find_lane_backend(env);
    if (!b)
      throw DesignError("BIBS_LANES=" + std::string(env) +
                        " is not a compiled-in lane backend (have: " +
                        compiled_in_names() + ")");
    if (!b->supported())
      throw DesignError("BIBS_LANES=" + std::string(env) +
                        " is not supported by this CPU");
    return b;
  }
  const LaneBackend* widest = &scalar_lane_backend();
  for (const LaneBackend* b : all_lane_backends())
    if (b->supported() && b->words > widest->words) widest = b;
  return widest;
}

std::mutex g_active_mutex;
std::atomic<const LaneBackend*> g_active{nullptr};

}  // namespace

const LaneBackend& scalar_lane_backend() {
  static const LaneBackend backend =
      lanes_detail::make_lane_backend<1>("scalar64", &always_supported);
  return backend;
}

const std::vector<const LaneBackend*>& all_lane_backends() {
  static const std::vector<const LaneBackend*> backends = [] {
    std::vector<const LaneBackend*> v{&scalar_lane_backend()};
#ifdef BIBS_LANES_AVX512
    v.push_back(detail::avx512_backend());
#endif
    return v;
  }();
  return backends;
}

const LaneBackend* find_lane_backend(const std::string& name) {
  for (const LaneBackend* b : all_lane_backends())
    if (name == b->name) return b;
  return nullptr;
}

const LaneBackend* lane_backend_for_lanes(int lanes) {
  for (const LaneBackend* b : all_lane_backends())
    if (b->lanes == lanes && b->supported()) return b;
  return nullptr;
}

const LaneBackend& active_lane_backend() {
  if (const LaneBackend* b = g_active.load(std::memory_order_acquire))
    return *b;
  const std::lock_guard<std::mutex> lock(g_active_mutex);
  if (const LaneBackend* b = g_active.load(std::memory_order_acquire))
    return *b;
  const LaneBackend* resolved = resolve_active();
  obs::set_report_label("lanes", resolved->name);
  g_active.store(resolved, std::memory_order_release);
  return *resolved;
}

/// The dirty-bitmask event loop of the compiled fault propagation: one word
/// per net, one dirty bit per instruction. Instruction indices are a
/// topological order (consumers follow producers in the stream), so
/// scheduling is one idempotent OR and popping is countr_zero on an
/// ascending bit scan. Three facts keep the per-event work minimal:
///  - every net is written at most once per sweep (ascending topological
///    order), so a changed net can be recorded without comparing against
///    good first, and detection falls out of the changed list at the end;
///  - the injection instruction can never be re-marked (its fan-ins are
///    strictly upstream of the cone), so no per-event skip is needed;
///  - the current bitmask word is kept in a register and only spilled marks
///    go through memory, so there is no load/store chain on dirty[wi].
std::uint64_t propagate_fault(const LanePropagateCtx& c,
                              const LaneFaultSite& f, NetId* chg) {
  const ProgramView& pv = c.pv;
  std::uint64_t* cur = c.cur;
  const std::uint64_t* good = c.good;

  const std::uint64_t stuck_word = f.stuck ? ~0ull : 0ull;
  const std::uint64_t injected =
      f.pin < 0 ? stuck_word
                : lanes_detail::eval_one_forced_w<1>(
                      pv, f.instr, cur, f.pin,
                      LaneWord<1>::broadcast(stuck_word)).w[0];
  if (injected == cur[f.net]) return 0;
  cur[f.net] = injected;

  std::size_t nchg = 0;
  chg[nchg++] = f.net;

  std::uint64_t* dirty = c.dirty;
  const std::size_t nwords = (c.n_instr + 63) / 64;
  std::size_t wlo = nwords;
  for (const std::uint32_t* p = pv.fo + pv.fo_off[f.net],
                          * pe = pv.fo + pv.fo_off[f.net + 1];
       p != pe; ++p) {
    const std::size_t w = *p >> 6;
    dirty[w] |= 1ull << (*p & 63);
    if (w < wlo) wlo = w;
  }

  for (std::size_t wi = wlo; wi < nwords; ++wi) {
    std::uint64_t w = dirty[wi];
    dirty[wi] = 0;
    while (w != 0) {
      const std::uint32_t ii = static_cast<std::uint32_t>(
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(w)));
      w &= w - 1;
      const std::uint64_t v = lanes_detail::eval_one_w<1>(pv, ii, cur).w[0];
      const NetId id = pv.out[ii];
      if (v == cur[id]) continue;
      cur[id] = v;
      chg[nchg++] = id;
      for (const std::uint32_t* p = pv.fo + pv.fo_off[id],
                              * pe = pv.fo + pv.fo_off[id + 1];
           p != pe; ++p) {
        const std::uint32_t cc = *p;
        if ((cc >> 6) == wi)
          w |= 1ull << (cc & 63);
        else
          dirty[cc >> 6] |= 1ull << (cc & 63);
      }
    }
  }

  const std::uint64_t mask = c.lane_mask;
  std::uint64_t det = 0;
  for (std::size_t k = 0; k < nchg; ++k) {
    const std::size_t n = static_cast<std::size_t>(chg[k]);
    if (c.observed[n]) det |= (cur[n] ^ good[n]) & mask;
    cur[n] = good[n];
  }
  return det;
}

void set_lane_backend(const LaneBackend* backend) {
  if (backend && !backend->supported())
    throw DesignError("lane backend " + std::string(backend->name) +
                      " is not supported by this CPU");
  const std::lock_guard<std::mutex> lock(g_active_mutex);
  if (backend) obs::set_report_label("lanes", backend->name);
  g_active.store(backend, std::memory_order_release);
}

}  // namespace bibs::gate
