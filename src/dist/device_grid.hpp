#pragma once

// DeviceGrid: N independent simulated GPUs joined by an InterconnectModel.
//
// Each member is a full gpusim::Device with its own streams, timeline,
// profiles and trace; the grid adds the one thing a single device cannot
// express — modeled PEER transfers. transfer(src, dst, bytes) synchronizes
// both endpoints, aligns their clocks to the rendezvous point
// max(clock_src, clock_dst) (Device::wait_until), then charges
// link.transfer_seconds(bytes) on BOTH timelines as an external op, so the
// communication appears in both devices' ModelOnly timelines, profiles and
// chrome traces, exactly like `pcie_transfer` on one device. Every transfer
// is also appended to a host-side comm log from which comm_stats() reports
// the volume/time totals the scaling bench plots.
//
// Fault model (ISSUE 8). The grid owns the two failure classes a lone
// device cannot express:
//
//   * link faults — a transfer's payload is dropped or arrives with one
//     flipped bit (gpusim::LinkFaultPlan, seeded per transfer ordinal).
//     transfer_payload() detects both with an FNV-1a checksum over the
//     payload bytes and recovers by bounded resend-with-backoff; every
//     attempt's link time (and the backoff) is charged to BOTH endpoint
//     timelines, so recovery traffic is first-class in ModelOnly runs and
//     chrome traces. A resend ships the sender's intact bytes, so every
//     recovered transfer is bit-identical to a fault-free one.
//   * device loss — a device dies at a chosen transfer ordinal (or via
//     kill_device()). Death is detected at the next rendezvous that touches
//     the dead peer: the survivor charges rendezvous_timeout_us to its
//     timeline and the transfer fails TYPED (TransferResult::peer_dead from
//     the checked API, DeviceLostError from the legacy double-returning
//     API) instead of waiting forever. Recovery — shard reassignment over
//     the survivors — lives one layer up in dist/grid_ft.hpp.
//
// Determinism: the grid performs no host-side parallelism of its own,
// every member timeline is resolved by the same pure event simulation as a
// lone device, and every fault decision is a pure function of (seed,
// transfer ordinal) with resends consuming fresh ordinals — so Functional
// and ModelOnly grids produce bit-identical timelines, comm logs and fault
// trajectories for the same issue sequence (tests/test_dist.cpp). The one
// measure-zero caveat: a ModelOnly grid counts every injected fault as
// checksum-detected, while a Functional grid compares real checksums — the
// two can only diverge if a corrupted payload checksums equal to the
// original (in which case its bytes are equal and nothing was corrupt).
//
// fingerprint() composes the member device-model fingerprints, the
// interconnect fingerprint, the device count AND the grid-health generation
// (bumped on every device loss) into one FNV-1a digest — the key
// serve::PlanCache uses, so cached dist plans self-invalidate when the link
// model, the device model, the grid size, or the set of live devices
// changes.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "dist/interconnect.hpp"
#include "ft/ft.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/report.hpp"

namespace caqr::dist {

// One modeled peer transfer (host-side record; simulated seconds).
struct CommRecord {
  int src = 0;
  int dst = 0;
  double bytes = 0;
  double seconds = 0;  // link occupancy charged on both endpoints
  double start = 0;    // aligned simulated start time
  std::string label;
  // True iff the pair crossed the slow (inter-node) tier of a hierarchical
  // interconnect; always false on a flat grid. This is the per-transfer
  // receipt the comm-volume tests and the hierarchy bench aggregate.
  bool inter_node = false;
};

struct CommStats {
  long long transfers = 0;
  double bytes = 0;
  double seconds = 0;  // sum of per-transfer link time (not wall overlap)
  // Per-hierarchy-level split of the totals above (flat grids count
  // everything as intra). bytes == intra_bytes + inter_bytes, always.
  long long intra_transfers = 0;
  long long inter_transfers = 0;
  double intra_bytes = 0;
  double inter_bytes = 0;
  double intra_seconds = 0;
  double inter_seconds = 0;
  // Fault/recovery counters (ISSUE 8): resend attempts, transfers whose
  // retry budget exhausted, detected payload corruptions, injected fault
  // events by kind, and rendezvous timeouts against dead peers.
  long long retried_transfers = 0;
  long long failed_transfers = 0;
  long long checksum_mismatches = 0;
  long long injected_drops = 0;
  long long injected_flips = 0;
  long long rendezvous_timeouts = 0;
};

// One injected link-fault event (host-side log, for tests and diagnostics).
struct LinkFaultEvent {
  enum class Kind { Drop, Flip };
  Kind kind = Kind::Drop;
  long long transfer_ordinal = 0;
  int src = 0;
  int dst = 0;
  std::string label;
};

// Death of a device at a chosen grid transfer ordinal (the grid-level
// analogue of FaultOptions::max_faults + only_kernel pinning: fully
// deterministic, so a test can kill device 2 at exactly the 7th transfer).
struct DeviceLossPlan {
  int device = -1;
  long long at_transfer = 0;
};

// Grid-level fault-tolerance policy + injection schedule.
struct GridFtOptions {
  // Seeded link-fault injection (off by default: both probabilities 0).
  gpusim::LinkFaultOptions link_faults;
  // Verify an FNV-1a checksum over every payload transfer. On by default —
  // with injection off it costs nothing (the compare is skipped entirely).
  bool checksums = true;
  // Bounded resend budget per transfer; 0 = detect and report only.
  int max_transfer_retries = 3;
  // Backoff before resend attempt k: retry_backoff_us * 2^(k-1), charged to
  // both endpoint timelines as a "link_backoff" external op.
  double retry_backoff_us = 25.0;
  // Simulated seconds a survivor waits before declaring a silent peer dead;
  // charged to the survivor's timeline as "rendezvous_timeout".
  double rendezvous_timeout_us = 500.0;
  // Deterministic device-loss schedule (each entry fires at most once).
  std::vector<DeviceLossPlan> device_losses;
};

// Typed outcome of one checked transfer.
struct TransferResult {
  ft::Severity severity = ft::Severity::Ok;  // Ok / Corrected / Unrecovered
  bool peer_dead = false;  // rendezvous timed out against a dead device
  int dead_device = -1;    // valid when peer_dead
  int retries = 0;         // resend attempts beyond the first send
  double completion = 0;   // simulated completion time (last attempt)

  bool ok() const { return !peer_dead && severity != ft::Severity::Unrecovered; }
};

// Typed failure of the legacy double-returning transfer API against a dead
// peer — thrown after the rendezvous-timeout charge, never a hang or abort.
// The grid_ft recovery driver catches it and reassigns the dead shard.
struct DeviceLostError : std::runtime_error {
  explicit DeviceLostError(int dev)
      : std::runtime_error("device " + std::to_string(dev) +
                           " lost at rendezvous"),
        device(dev) {}
  int device = -1;
};

class DeviceGrid {
 public:
  explicit DeviceGrid(int num_devices,
                      gpusim::GpuMachineModel model =
                          gpusim::GpuMachineModel::c2050(),
                      InterconnectModel interconnect =
                          InterconnectModel::pcie_switch(),
                      gpusim::ExecMode mode = gpusim::ExecMode::Functional)
      : interconnect_(std::move(interconnect)), mode_(mode) {
    CAQR_CHECK(num_devices >= 1);
    devices_.reserve(static_cast<std::size_t>(num_devices));
    for (int d = 0; d < num_devices; ++d) {
      devices_.emplace_back(model, mode);
    }
    alive_.assign(static_cast<std::size_t>(num_devices), 1);
  }

  // Hierarchical grid: per-pair link selection through `hier` (the flat
  // `interconnect()` is set to the intra-node class so hierarchy-unaware
  // callers see the fast tier). Device d lives on node d / devices_per_node
  // — node-major placement, the order NodeGrid and the topology-aware tree
  // builder assume.
  DeviceGrid(int num_devices, gpusim::GpuMachineModel model,
             HierarchicalInterconnect hier,
             gpusim::ExecMode mode = gpusim::ExecMode::Functional)
      : DeviceGrid(num_devices, model, hier.intra, mode) {
    CAQR_CHECK(hier.devices_per_node >= 1);
    hier_ = std::move(hier);
  }

  // Non-null iff this grid charges transfers through a two-level
  // interconnect (per-pair link lookup instead of the flat crossbar).
  const HierarchicalInterconnect* hierarchy() const {
    return hier_ ? &*hier_ : nullptr;
  }

  int size() const { return static_cast<int>(devices_.size()); }
  std::span<const gpusim::Device> devices() const { return devices_; }
  gpusim::ExecMode mode() const { return mode_; }
  gpusim::Device& device(int d) {
    CAQR_CHECK(d >= 0 && d < size());
    return devices_[static_cast<std::size_t>(d)];
  }
  const gpusim::Device& device(int d) const {
    CAQR_CHECK(d >= 0 && d < size());
    return devices_[static_cast<std::size_t>(d)];
  }
  const InterconnectModel& interconnect() const { return interconnect_; }

  // Link charged between an ordered device pair (the flat crossbar link, or
  // the hierarchy tier the pair crosses).
  const InterconnectModel& link_between(int src, int dst) const {
    return hier_ ? hier_->link_between(src, dst) : interconnect_;
  }

  // Grid fault model (injection schedule + recovery policy). Replacing the
  // options does not resurrect dead devices.
  void set_fault_tolerance(GridFtOptions opt) { ft_ = std::move(opt); }
  const GridFtOptions& fault_tolerance() const { return ft_; }

  // ---- device health -------------------------------------------------
  bool alive(int d) const {
    CAQR_CHECK(d >= 0 && d < size());
    return alive_[static_cast<std::size_t>(d)] != 0;
  }
  // Marks a device dead and bumps the health generation (fingerprint
  // change => cached dist plans stop matching). Idempotent per device.
  void kill_device(int d) {
    CAQR_CHECK(d >= 0 && d < size());
    if (alive_[static_cast<std::size_t>(d)] != 0) {
      alive_[static_cast<std::size_t>(d)] = 0;
      ++health_generation_;
    }
  }
  int num_alive() const {
    int n = 0;
    for (const char a : alive_) n += a != 0;
    return n;
  }
  std::vector<int> live_devices() const {
    std::vector<int> out;
    out.reserve(alive_.size());
    for (int d = 0; d < size(); ++d) {
      if (alive_[static_cast<std::size_t>(d)] != 0) out.push_back(d);
    }
    return out;
  }
  // Monotonic counter of device losses since construction; mixed into
  // fingerprint() so serve::PlanCache entries for the old grid age out.
  std::uint64_t health_generation() const { return health_generation_; }

  // Composed digest: every member device model, the interconnect, the
  // device count, and the grid-health state. Two grids with equal
  // fingerprints produce bit-identical simulated timelines for the same
  // program on the same live devices.
  std::uint64_t fingerprint() const {
    std::uint64_t h = ft::detail::kFnvOffset;
    for (const auto& dev : devices_) {
      const std::uint64_t f = dev.model().fingerprint();
      h = ft::detail::fnv1a(&f, sizeof(f), h);
    }
    const std::uint64_t link = interconnect_.fingerprint();
    h = ft::detail::fnv1a(&link, sizeof(link), h);
    if (hier_) {
      // Both link classes + node width: a changed inter-node network or a
      // different device placement must invalidate cached dist plans even
      // though the intra-node (flat) link is unchanged.
      const std::uint64_t hf = hier_->fingerprint();
      h = ft::detail::fnv1a(&hf, sizeof(hf), h);
    }
    const std::int64_t n = size();
    h = ft::detail::fnv1a(&n, sizeof(n), h);
    if (health_generation_ != 0) {
      h = ft::detail::fnv1a(&health_generation_, sizeof(health_generation_), h);
      h = ft::detail::fnv1a(alive_.data(), alive_.size(), h);
    }
    return h;
  }

  // Modeled point-to-point transfer: rendezvous (both endpoints' clocks
  // advance to the later of the two), then the link time is charged on both
  // timelines under `label`. A same-device "transfer" is free (no link
  // crossed) and charges nothing. Returns the simulated completion time.
  // Moves no data — functional callers copy the host-resident shards
  // themselves; this models when those bytes would have arrived.
  //
  // Typed failure: a dead endpoint charges the rendezvous timeout to the
  // survivor and throws DeviceLostError (never hangs). Injected link faults
  // apply to this API too (payload-free transfers are judged as a ModelOnly
  // payload would be); an exhausted retry budget still returns the final
  // completion time — corruption reporting needs transfer_payload.
  double transfer(int src, int dst, double bytes,
                  const std::string& label = "link_transfer") {
    if (src == dst) return device(src).sync();
    const TransferResult r =
        transfer_payload<double>(src, dst, bytes, label, {}, {});
    if (r.peer_dead) throw DeviceLostError(r.dead_device);
    return r.completion;
  }

  // Checked, payload-aware transfer: models the link cost like transfer()
  // AND moves `sv` into `dv` (when both are backed — ModelOnly callers pass
  // empty views), with fault injection, FNV checksum detection, and bounded
  // resend-with-backoff. Never throws on a dead peer: the typed result
  // carries peer_dead + the dead device id. `bytes` is the modeled wire
  // size (e.g. a packed triangle), which may be less than the view's bytes.
  template <typename T>
  TransferResult transfer_payload(int src, int dst, double bytes,
                                  const std::string& label,
                                  ConstMatrixView<T> sv, MatrixView<T> dv) {
    CAQR_CHECK(bytes >= 0);
    trigger_scheduled_losses();
    TransferResult res;
    const bool functional = sv.data() != nullptr && dv.data() != nullptr;
    if (src == dst) {
      // No link crossed: the "transfer" is a local copy, charges nothing.
      if (functional) dv.copy_from(sv);
      res.completion = device(src).elapsed_seconds();
      return res;
    }
    if (!alive(src) || !alive(dst)) {
      return fail_dead_peer(src, dst, label);
    }
    gpusim::Device& s = device(src);
    gpusim::Device& d = device(dst);
    const bool inject = ft_.link_faults.enabled();
    const int max_retries = std::max(0, ft_.max_transfer_retries);
    for (int attempt = 0;; ++attempt) {
      const long long ordinal = transfer_ordinal_++;
      const double t_src = s.sync();
      const double t_dst = d.sync();
      const double start = t_src > t_dst ? t_src : t_dst;
      s.wait_until(start);
      d.wait_until(start);
      double backoff = 0;
      if (attempt > 0) {
        // Exponential backoff before the resend, on both clocks (they are
        // aligned, so they stay aligned).
        backoff = ft_.retry_backoff_us * 1e-6 *
                  static_cast<double>(1 << (attempt - 1));
        s.add_external_seconds(backoff, "link_backoff");
        d.add_external_seconds(backoff, "link_backoff");
      }
      const std::string lbl = attempt == 0 ? label : label + "_retry";
      // Per-pair link lookup: the hierarchy (when present) picks the tier
      // the pair crosses; flat grids use the single crossbar link. Retries
      // and backoff ride the same tier as the original send.
      const InterconnectModel& link = link_between(src, dst);
      const bool inter = hier_ && !hier_->same_node(src, dst);
      const double t = link.transfer_seconds(bytes);
      s.transfer(bytes, link.link, lbl);
      d.transfer(bytes, link.link, lbl);
      comm_log_.push_back(
          CommRecord{src, dst, bytes, t, start + backoff, lbl, inter});
      res.completion = s.elapsed_seconds();

      bool corrupted = false;
      if (inject) {
        gpusim::LinkFaultPlan plan(
            ft_.link_faults, ordinal,
            ft_.link_faults.budget_left(link_fault_log_.size()));
        if (plan.drop()) {
          // The payload never arrives; model the receive buffer as cleared
          // (deterministic — never garbage from uninitialized storage).
          if (functional) dv.fill(T(0));
          link_fault_log_.push_back(
              {LinkFaultEvent::Kind::Drop, ordinal, src, dst, lbl});
          ++stats_.injected_drops;
          corrupted = true;
        } else {
          if (functional) dv.copy_from(sv);
          if (plan.flip()) {
            if (functional) plan.apply_flip(dv);
            link_fault_log_.push_back(
                {LinkFaultEvent::Kind::Flip, ordinal, src, dst, lbl});
            ++stats_.injected_flips;
            corrupted = true;
          }
        }
      } else if (functional) {
        dv.copy_from(sv);
      }

      // Detection: sender-side FNV over the intact bytes vs receiver-side
      // FNV over what landed. ModelOnly payloads judge the injected fault
      // directly (the decisions are identical, so timelines stay in parity
      // with a Functional twin).
      bool mismatch = false;
      if (ft_.checksums && inject) {
        mismatch = functional ? view_checksum(sv) != view_checksum(dv.as_const())
                              : corrupted;
      }
      if (!mismatch) {
        res.severity = attempt == 0 ? ft::Severity::Ok : ft::Severity::Corrected;
        res.retries = attempt;
        return res;
      }
      ++stats_.checksum_mismatches;
      if (attempt >= max_retries) {
        // Budget exhausted: deliver the corrupted payload TYPED — the
        // caller decides whether to escalate. (A final drop leaves the
        // deterministic zero fill in dv.)
        ++stats_.failed_transfers;
        res.severity = ft::Severity::Unrecovered;
        res.retries = attempt;
        return res;
      }
      ++stats_.retried_transfers;
    }
  }

  // Grid-wide barrier over the LIVE devices: every survivor joins at the
  // latest live clock. Returns it.
  double barrier() {
    double t = 0;
    for (int d = 0; d < size(); ++d) {
      if (alive(d)) t = std::max(t, device(d).sync());
    }
    for (int d = 0; d < size(); ++d) {
      if (alive(d)) device(d).wait_until(t);
    }
    return t;
  }

  // Latest member clock (no barrier side effect).
  double elapsed_seconds() const {
    double t = 0;
    for (const auto& dev : devices_) t = std::max(t, dev.elapsed_seconds());
    return t;
  }

  void reset_timelines() {
    for (auto& dev : devices_) dev.reset_timeline();
    comm_log_.clear();
    link_fault_log_.clear();
    stats_ = CommStats{};
    transfer_ordinal_ = 0;
    for (auto& p : fired_losses_) p = 0;
  }

  const std::vector<CommRecord>& comm_log() const { return comm_log_; }
  const std::vector<LinkFaultEvent>& link_fault_log() const {
    return link_fault_log_;
  }

  CommStats comm_stats() const {
    CommStats s = stats_;
    for (const auto& r : comm_log_) {
      ++s.transfers;
      s.bytes += r.bytes;
      s.seconds += r.seconds;
      if (r.inter_node) {
        ++s.inter_transfers;
        s.inter_bytes += r.bytes;
        s.inter_seconds += r.seconds;
      } else {
        ++s.intra_transfers;
        s.intra_bytes += r.bytes;
        s.intra_seconds += r.seconds;
      }
    }
    return s;
  }

 private:
  template <typename T>
  static std::uint64_t view_checksum(ConstMatrixView<T> v) {
    std::uint64_t h = ft::detail::kFnvOffset;
    for (idx j = 0; j < v.cols(); ++j) {
      h = ft::detail::fnv1a(v.col(j),
                            sizeof(T) * static_cast<std::size_t>(v.rows()), h);
    }
    return h;
  }

  // Fires every scheduled loss whose ordinal has been reached (each at most
  // once, tracked independently of alive_ so kill/option changes compose).
  void trigger_scheduled_losses() {
    if (ft_.device_losses.empty()) return;
    fired_losses_.resize(ft_.device_losses.size(), 0);
    for (std::size_t i = 0; i < ft_.device_losses.size(); ++i) {
      const DeviceLossPlan& p = ft_.device_losses[i];
      if (fired_losses_[i] == 0 && p.device >= 0 && p.device < size() &&
          transfer_ordinal_ >= p.at_transfer) {
        fired_losses_[i] = 1;
        kill_device(p.device);
      }
    }
  }

  // Dead-peer rendezvous: the survivor (if any) waits out the configured
  // timeout on its own timeline, the failure is typed, nothing hangs.
  TransferResult fail_dead_peer(int src, int dst, const std::string& label) {
    TransferResult res;
    res.peer_dead = true;
    res.dead_device = !alive(src) ? src : dst;
    res.severity = ft::Severity::Unrecovered;
    const int survivor = res.dead_device == src ? dst : src;
    const double timeout = ft_.rendezvous_timeout_us * 1e-6;
    if (alive(survivor)) {
      gpusim::Device& sd = device(survivor);
      sd.add_external_seconds(timeout, "rendezvous_timeout");
      res.completion = sd.elapsed_seconds();
    }
    ++stats_.rendezvous_timeouts;
    ++stats_.failed_transfers;
    comm_log_.push_back(CommRecord{src, dst, 0.0, timeout,
                                   std::max(0.0, res.completion - timeout),
                                   label + "_timeout"});
    return res;
  }

  std::vector<gpusim::Device> devices_;
  InterconnectModel interconnect_;
  std::optional<HierarchicalInterconnect> hier_;
  gpusim::ExecMode mode_;
  std::vector<CommRecord> comm_log_;
  std::vector<LinkFaultEvent> link_fault_log_;
  GridFtOptions ft_;
  CommStats stats_;  // fault counters only; volume derives from comm_log_
  std::vector<char> alive_;
  std::vector<char> fired_losses_;
  std::uint64_t health_generation_ = 0;
  long long transfer_ordinal_ = 0;
};

// The members of the grid's chrome-trace document: one process ("pid") per
// device, tid = that device's stream ids (gpusim::write_trace_events) — load
// in chrome://tracing / ui.perfetto.dev to see per-device overlap and the
// link transfers on both endpoints (retry and backoff ops included, so
// recovery traffic is visible). The grid's comm/recovery counters are
// always embedded as "commStats"; `other_data` follows the same contract as
// gpusim::write_trace.
inline void write_grid_trace(json::Writer& w, const DeviceGrid& grid,
                             const std::string& other_data = "") {
  gpusim::write_trace_events(w, grid.devices());
  const CommStats& s = grid.comm_stats();
  w.key("commStats").begin_object();
  w.field("transfers", s.transfers).field("bytes", s.bytes);
  w.field("seconds", s.seconds).field("intra_transfers", s.intra_transfers);
  w.field("inter_transfers", s.inter_transfers);
  w.field("intra_bytes", s.intra_bytes).field("inter_bytes", s.inter_bytes);
  w.field("intra_seconds", s.intra_seconds);
  w.field("inter_seconds", s.inter_seconds);
  w.field("retried_transfers", s.retried_transfers);
  w.field("failed_transfers", s.failed_transfers);
  w.field("checksum_mismatches", s.checksum_mismatches);
  w.field("injected_drops", s.injected_drops);
  w.field("injected_flips", s.injected_flips);
  w.field("rendezvous_timeouts", s.rendezvous_timeouts).end_object();
  if (!other_data.empty()) w.key("otherData").raw(other_data);
}

// The grid's trace as one JSON document (see write_grid_trace).
inline std::string grid_trace_json(const DeviceGrid& grid,
                                   const std::string& other_data = "") {
  json::Writer w;
  w.begin_object();
  write_grid_trace(w, grid, other_data);
  w.end_object();
  return w.str();
}

}  // namespace caqr::dist
