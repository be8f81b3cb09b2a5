#include "network/wormhole_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/recorder.hpp"
#include "util/verify.hpp"

namespace procsim::network {

namespace {

std::size_t run_len_bucket(std::int32_t n) noexcept {
  if (n <= 1) return 0;
  if (n <= 3) return 1;
  if (n <= 7) return 2;
  if (n <= 15) return 3;
  if (n <= 31) return 4;
  return 5;
}

// The argument of a typed network event: a packet or channel index in the
// low 32 bits, the epoch that must still match when it fires in the high 32.
std::uint64_t pack(std::int32_t index, std::uint32_t epoch) noexcept {
  return (static_cast<std::uint64_t>(epoch) << 32) | static_cast<std::uint32_t>(index);
}
std::int32_t index_of(std::uint64_t arg) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(arg));
}
std::uint32_t epoch_of(std::uint64_t arg) noexcept {
  return static_cast<std::uint32_t>(arg >> 32);
}

}  // namespace

NetEngine parse_net_engine(std::string_view name) {
  if (name == "batched") return NetEngine::kBatched;
  if (name == "analytic") return NetEngine::kAnalytic;
  throw std::invalid_argument("net engine must be batched or analytic (got '" +
                              std::string(name) + "')");
}

const char* net_engine_name(NetEngine engine) noexcept {
  switch (engine) {
    case NetEngine::kStepped: return "stepped";
    case NetEngine::kBatched: return "batched";
    case NetEngine::kVerify: return "verify";
    case NetEngine::kAnalytic: return "analytic";
  }
  return "?";
}

WormholeNetwork::WormholeNetwork(des::Simulator& sim, mesh::Geometry geom,
                                 NetworkParams params)
    : sim_(sim), map_(geom, params.torus), params_(params) {
  if (params_.engine == NetEngine::kBatched && util::verify_enabled())
    params_.engine = NetEngine::kVerify;
  if (params.st < 0 || params.packet_len < 1)
    throw std::invalid_argument("WormholeNetwork: bad parameters");
  const auto n_channels = static_cast<std::size_t>(map_.channel_count());
  if (params_.engine == NetEngine::kAnalytic) {
    busy_cycles_.assign(n_channels, 0.0);
    return;
  }
  primary_ = std::make_unique<EngineState>();
  primary_->net = this;
  primary_->stepped = (params_.engine == NetEngine::kStepped);
  primary_->channels.resize(n_channels);
  if (params_.engine == NetEngine::kVerify) {
    shadow_ = std::make_unique<EngineState>();
    shadow_->net = this;
    shadow_->stepped = true;
    shadow_->shadow = true;
    shadow_->channels.resize(n_channels);
  }
}

std::int32_t WormholeNetwork::alloc_packet(EngineState& st, mesh::NodeId src,
                                           mesh::NodeId dst, std::uint64_t tag) {
  std::int32_t idx;
  if (!st.free_pool.empty()) {
    idx = st.free_pool.back();
    st.free_pool.pop_back();
  } else {
    idx = static_cast<std::int32_t>(st.pool.size());
    st.pool.emplace_back();
  }
  Packet& p = st.pool[static_cast<std::size_t>(idx)];
  map_.route_into(src, dst, p.path);  // reuses the recycled slot's capacity
  p.next = 0;
  p.res_end = 0;
  p.next_waiter = -1;
  p.seq = st.next_seq++;
  // run_epoch deliberately not reset: a recycled slot keeps growing it so any
  // straggler event stamped for the previous occupant can never match.
  p.inject_time = sim_.now();
  p.attempt_time = 0;
  p.anchor_time = p.inject_time;
  p.anchor_idx = 0;
  p.blocked = 0;
  p.tag = tag;
  p.src = src;
  p.dst = dst;
  p.fresh_block = false;
  return idx;
}

void WormholeNetwork::inject(mesh::NodeId src, mesh::NodeId dst, std::uint64_t tag) {
  if (params_.engine == NetEngine::kAnalytic) {
    inject_analytic(src, dst, tag);
    return;
  }
  ++metrics_.injected;
  if (rec_ != nullptr)
    rec_->packet_inject(sim_.now(), tag, static_cast<std::int32_t>(src),
                        static_cast<std::int32_t>(dst));
  const std::int32_t p = alloc_packet(*primary_, src, dst, tag);
  register_attempt(*primary_, p, sim_.now());
  if (shadow_ != nullptr) {
    const std::int32_t s = alloc_packet(*shadow_, src, dst, tag);
    shadow_->pool[static_cast<std::size_t>(s)].twin = p;
    register_attempt(*shadow_, s, sim_.now());
  }
}

namespace {
struct FifoKey {
  double t;
  std::uint64_t seq;
  [[nodiscard]] bool before(double ot, std::uint64_t oseq) const noexcept {
    return t < ot || (t == ot && seq < oseq);
  }
};
}  // namespace

void WormholeNetwork::register_attempt(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  p.attempt_time = t;
  p.fresh_block = true;
  enqueue_waiter(st, pkt);
  mark_dirty(st, p.path[static_cast<std::size_t>(p.next)]);
  ensure_arbitration(st);
}

// The header reaches its next path channel at `when` and attempts it, unless
// a truncation bumps the packet's run epoch first.
void WormholeNetwork::schedule_attempt(EngineState& st, std::int32_t pkt, double when) {
  const std::uint32_t e = st.pool[static_cast<std::size_t>(pkt)].run_epoch;
  const des::EventFn attempt = [](void* ctx, std::uint64_t arg) {
    EngineState& s = *static_cast<EngineState*>(ctx);
    const std::int32_t p = index_of(arg);
    if (s.pool[static_cast<std::size_t>(p)].run_epoch != epoch_of(arg)) return;
    s.net->register_attempt(s, p, s.net->sim_.now());
  };
  sim_.schedule_at(when, {attempt, &st}, pack(pkt, e));
}

// Inserts `pkt` into the waiter FIFO of its next path channel, keyed by
// (attempt_time, seq). Insertion is at the tail except among same-instant
// attempts, so the walk is O(1) in practice.
void WormholeNetwork::enqueue_waiter(EngineState& st, std::int32_t pkt) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const double t = p.attempt_time;
  const ChannelId cid = p.path[static_cast<std::size_t>(p.next)];
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  p.next_waiter = -1;
  if (ch.wait_tail < 0) {
    ch.wait_head = ch.wait_tail = pkt;
  } else {
    Packet& tail = st.pool[static_cast<std::size_t>(ch.wait_tail)];
    if (FifoKey{tail.attempt_time, tail.seq}.before(t, p.seq)) {
      tail.next_waiter = pkt;
      ch.wait_tail = pkt;
    } else {
      std::int32_t prev = -1;
      std::int32_t cur = ch.wait_head;
      while (cur >= 0) {
        const Packet& w = st.pool[static_cast<std::size_t>(cur)];
        if (FifoKey{t, p.seq}.before(w.attempt_time, w.seq)) break;
        prev = cur;
        cur = w.next_waiter;
      }
      p.next_waiter = cur;
      if (prev < 0)
        ch.wait_head = pkt;
      else
        st.pool[static_cast<std::size_t>(prev)].next_waiter = pkt;
      if (cur < 0) ch.wait_tail = pkt;
    }
  }
}

void WormholeNetwork::mark_dirty(EngineState& st, ChannelId cid) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  if (ch.dirty) return;
  ch.dirty = true;
  st.dirty.push_back(cid);
  if (params_.engine == NetEngine::kVerify) verify_touched_.push_back(cid);
}

void WormholeNetwork::ensure_arbitration(EngineState& st) {
  const double now = sim_.now();
  if (st.arb_time == now) return;
  st.arb_time = now;
  const des::EventFn pass = [](void* ctx, std::uint64_t) {
    EngineState& s = *static_cast<EngineState*>(ctx);
    s.net->run_pass(s);
  };
  sim_.schedule_at(now, {pass, &st});
}

// The canonical arbitration pass: runs once per network-active timestamp
// after every other event at that time, resolving contested channels in
// ascending id order, then flushing ejection completions sorted by ejection
// channel. Both engines funnel through here, which pins every tie-break to
// an engine-independent order.
void WormholeNetwork::run_pass(EngineState& st) {
  const double t = sim_.now();
  st.arb_time = -1.0;  // later registrations at this timestamp re-arm
  std::sort(st.dirty.begin(), st.dirty.end());
  for (std::size_t i = 0; i < st.dirty.size(); ++i) arbitrate(st, st.dirty[i], t);
  st.dirty.clear();
  std::sort(st.ejections.begin(), st.ejections.end(),
            [](const Ejection& a, const Ejection& b) { return a.ch < b.ch; });
  for (std::size_t i = 0; i < st.ejections.size(); ++i) {
    const Ejection& e = st.ejections[i];
    if (st.pool[static_cast<std::size_t>(e.pkt)].run_epoch == e.epoch)
      complete(st, e.pkt, t);
  }
  st.ejections.clear();
  if (params_.engine == NetEngine::kVerify && !verify_cmp_armed_) {
    verify_cmp_armed_ = true;
    const des::EventFn compare = [](void* ctx, std::uint64_t) {
      auto& net = *static_cast<WormholeNetwork*>(ctx);
      net.verify_cmp_armed_ = false;
      net.verify_compare_states();
    };
    sim_.at_batch_end({compare, this});
  }
}

void WormholeNetwork::arbitrate(EngineState& st, ChannelId cid, double t) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.dirty = false;
  ch.release_if_due(t);
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.reserved && ch.acq_time >= t) {
    // The holder only reserved this channel (acquisition at or after now):
    // an attempt with a smaller canonical key arrived first and steals it.
    // Realized acquisitions are never truncated — a holder granted at this
    // very timestamp may have leftover waiters with earlier attempt times,
    // and those already lost their arbitration.
    const Packet& w = st.pool[static_cast<std::size_t>(ch.wait_head)];
    const Packet& h = st.pool[static_cast<std::size_t>(ch.holder)];
    if (FifoKey{w.attempt_time, w.seq}.before(ch.acq_time, h.seq))
      truncate(st, cid, t);
  }
  if (ch.holder < 0 && ch.wait_head >= 0) {
    const std::int32_t winner = ch.wait_head;
    Packet& w = st.pool[static_cast<std::size_t>(winner)];
    ch.wait_head = w.next_waiter;
    if (ch.wait_head < 0) ch.wait_tail = -1;
    w.next_waiter = -1;
    w.blocked += t - w.attempt_time;
    w.fresh_block = false;
    grant(st, winner, t);
  }
  // Attempts that stayed blocked this pass are reported once, in FIFO order.
  for (std::int32_t i = ch.wait_head; i >= 0;
       i = st.pool[static_cast<std::size_t>(i)].next_waiter) {
    Packet& w = st.pool[static_cast<std::size_t>(i)];
    if (w.fresh_block) {
      w.fresh_block = false;
      if (rec_ != nullptr && !st.shadow) rec_->channel_block(t, w.tag, cid);
    }
  }
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.rel_time != kNoRelease &&
      !ch.grant_scheduled)
    schedule_grant(st, cid, ch.rel_time);
}

// When the header reaches path channel i if nothing stops it: whole cycles
// counted from the packet's anchor. Injection times are continuous, so
// summing 1 + st per hop and multiplying it out round differently; both
// engines take every hop time from this one expression.
double WormholeNetwork::hop_time(const Packet& p, std::int32_t i) const noexcept {
  return p.anchor_time + static_cast<double>(static_cast<std::int64_t>(i - p.anchor_idx) *
                                             (1 + params_.st));
}

// A batched run anchors at its grant, a stepped header only where it waited
// (or at injection), so an unhindered stretch rounds once in both. A run cut
// short without a wait can still round apart (README "Network"), so the
// verify shadow takes the primary's anchor outright.
void WormholeNetwork::grant(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const Packet* twin =
      st.shadow ? &primary_->pool[static_cast<std::size_t>(p.twin)] : nullptr;
  if (twin != nullptr && twin->next > p.next && twin->anchor_idx <= p.next) {
    p.anchor_time = twin->anchor_time;  // the primary's run covers this hop
    p.anchor_idx = twin->anchor_idx;
  } else if (twin != nullptr || !st.stepped || t != p.attempt_time) {
    p.anchor_time = t;
    p.anchor_idx = p.next;
  }
  if (st.stepped)
    step_acquire(st, pkt, t);
  else
    start_run(st, pkt, t);
}

// Stepped (oracle) continuation: acquire exactly one channel and schedule
// the next attempt 1 + st cycles ahead — O(hops) events per packet.
void WormholeNetwork::step_acquire(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const std::int32_t i = p.next;
  take(st, pkt, i, t, /*reserved=*/false);
  p.next = i + 1;
  p.res_end = i + 1;
  if (static_cast<std::size_t>(i) + 1 == p.path.size())
    st.ejections.push_back({pkt, p.path[static_cast<std::size_t>(i)], p.run_epoch});
  else
    schedule_attempt(st, pkt, hop_time(p, i + 1));
}

// Batched continuation: acquire the maximal run of currently-free consecutive
// path channels in one shot. Channels past the first are reservations with
// future acquisition times (hop_time); worm-slide releases inside the run
// are computed arithmetically. One event total: the virtual arrival at the
// first non-free channel (or the ejection completion).
void WormholeNetwork::start_run(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const std::int32_t first = p.next;
  take(st, pkt, first, t, /*reserved=*/false);
  std::int32_t j = first + 1;
  while (j < len) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(j)])];
    ch.release_if_due(t);
    if (ch.holder >= 0 || ch.wait_head >= 0) break;
    take(st, pkt, j, hop_time(p, j), /*reserved=*/true);
    ++j;
  }
  p.next = j;
  p.res_end = j;
  ++stats_.runs_batched;
  ++stats_.run_len_hist[run_len_bucket(j - first)];
  if (j < len) {
    schedule_attempt(st, pkt, hop_time(p, j));
    return;
  }
  const std::uint32_t e = p.run_epoch;
  const ChannelId ej = p.path[static_cast<std::size_t>(len - 1)];
  const double t_eject = st.channels[static_cast<std::size_t>(ej)].acq_time;
  if (t_eject == t) {
    st.ejections.push_back({pkt, ej, e});  // flushed by this pass
  } else {
    // A matching epoch means the slot still holds this packet, so its
    // ejection channel is still path.back().
    const des::EventFn eject = [](void* ctx, std::uint64_t arg) {
      EngineState& s = *static_cast<EngineState*>(ctx);
      const std::int32_t q = index_of(arg);
      const Packet& pk = s.pool[static_cast<std::size_t>(q)];
      if (pk.run_epoch != epoch_of(arg)) return;
      s.ejections.push_back({q, pk.path.back(), pk.run_epoch});
      s.net->ensure_arbitration(s);
    };
    sim_.schedule_at(t_eject, {eject, &st}, pack(pkt, e));
  }
}

// An attempt with a smaller canonical key arrived before the reservation's
// acquisition time: the reservation (and everything the holder reserved
// downstream of it) is rolled back and the holder re-attempts at the time it
// would have arrived — exactly where the stepped engine's per-hop header
// would have been.
void WormholeNetwork::truncate(EngineState& st, ChannelId cid, double t) {
  Channel& target = st.channels[static_cast<std::size_t>(cid)];
  const std::int32_t victim = target.holder;
  Packet& p = st.pool[static_cast<std::size_t>(victim)];
  std::int32_t cut = p.res_end - 1;
  while (cut >= 0 && p.path[static_cast<std::size_t>(cut)] != cid) --cut;
  const double arrive = target.acq_time;
  for (std::int32_t m = cut; m < p.res_end; ++m) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(m)])];
    ch.clear_holder();
    ++ch.epoch;
    ch.grant_scheduled = false;
  }
  // Slide releases of the worm's tail were computed from the freed
  // acquisitions; they are unknown again until the holder advances.
  for (std::int32_t m = std::max(0, cut - params_.packet_len); m < cut; ++m) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(m)])];
    if (ch.holder == victim) {
      ch.rel_time = kNoRelease;
      ++ch.epoch;
      ch.grant_scheduled = false;
    }
  }
  ++p.run_epoch;  // cancels the pending arrival / ejection event
  p.next = cut;
  p.res_end = cut;
  ++stats_.truncations;
  if (arrive == t) {
    // Re-attempt right now: joins this very arbitration with its true key.
    p.attempt_time = t;
    p.fresh_block = true;
    enqueue_waiter(st, victim);
  } else {
    schedule_attempt(st, victim, arrive);
  }
}

// Path channel i of `pkt` becomes held from `when` (a reservation when that
// lies ahead). The worm spans at most P_len channels, so taking channel i
// slides the tail out of channel i - P_len one cycle later.
void WormholeNetwork::take(EngineState& st, std::int32_t pkt, std::int32_t i, double when,
                           bool reserved) {
  const Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const ChannelId cid = p.path[static_cast<std::size_t>(i)];
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.holder = pkt;
  ch.acq_time = when;
  ch.rel_time = kNoRelease;
  ch.reserved = reserved;
  if (i >= params_.packet_len)
    set_release(st, p.path[static_cast<std::size_t>(i - params_.packet_len)], when + 1.0);
  if (params_.engine == NetEngine::kVerify) verify_touched_.push_back(cid);
}

void WormholeNetwork::set_release(EngineState& st, ChannelId cid, double when) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.rel_time = when;
  if (ch.wait_head >= 0 && !ch.grant_scheduled) schedule_grant(st, cid, when);
}

// Re-arbitrates the channel at `when`, its known release time, unless a
// truncation bumps the channel's epoch first.
void WormholeNetwork::schedule_grant(EngineState& st, ChannelId cid, double when) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.grant_scheduled = true;
  const des::EventFn regrant = [](void* ctx, std::uint64_t arg) {
    EngineState& s = *static_cast<EngineState*>(ctx);
    const ChannelId c = index_of(arg);
    Channel& chan = s.channels[static_cast<std::size_t>(c)];
    if (chan.epoch != epoch_of(arg)) return;
    chan.grant_scheduled = false;
    s.net->mark_dirty(s, c);
    s.net->ensure_arbitration(s);
  };
  sim_.schedule_at(when, {regrant, &st}, pack(cid, ch.epoch));
}

void WormholeNetwork::complete(EngineState& st, std::int32_t pkt, double t_eject) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const double t_done = t_eject + static_cast<double>(params_.packet_len);
  // Channels without a slide-release: the last min(P_len, len) drain
  // back-to-front behind the ejected header.
  const std::int32_t h = std::min(params_.packet_len, len);
  for (std::int32_t d = h - 1; d >= 0; --d)
    set_release(st, p.path[static_cast<std::size_t>(len - 1 - d)],
                t_done - static_cast<double>(d));
  const des::EventFn done = [](void* ctx, std::uint64_t arg) {
    EngineState& s = *static_cast<EngineState*>(ctx);
    s.net->deliver(s, index_of(arg));
  };
  sim_.schedule_at(t_done, {done, &st}, static_cast<std::uint32_t>(pkt));
}

void WormholeNetwork::deliver(EngineState& st, std::int32_t pkt) {
  const Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const Delivery d{p.tag, p.src, p.dst, sim_.now() - p.inject_time, p.blocked,
                   static_cast<std::int32_t>(p.path.size()) - 2};
  if (params_.engine == NetEngine::kVerify)
    verify_match(p.seq, VerifyRec{sim_.now(), d.latency, d.blocked, d.hops, st.shadow});
  // Recycled before the sink runs, which may inject into the freed slot.
  st.pool[static_cast<std::size_t>(pkt)].path.clear();
  st.free_pool.push_back(pkt);
  if (!st.shadow) publish(d);
}

void WormholeNetwork::publish(const Delivery& d) {
  metrics_.latency.add(d.latency);
  metrics_.blocking.add(d.blocked);
  metrics_.hops.add(static_cast<double>(d.hops));
  ++metrics_.delivered;
  if (rec_ != nullptr)
    rec_->packet_deliver(sim_.now(), d.tag, static_cast<std::int32_t>(d.src),
                         static_cast<std::int32_t>(d.dst), d.hops, d.latency,
                         d.blocked);
  if (sink_ != nullptr) sink_(sink_ctx_, d);
}

// Analytic fast mode: one event per packet. Latency is the contention-free
// base plus an M/M/1-style waiting term rho/(1-rho) * S per path channel,
// where rho is the channel's running utilization (busy cycles / elapsed
// time, capped at 0.95) and S = channel_hold_cycles(). Trend-accurate only:
// cross-validated against the cycle model with a tolerance band, never
// byte-compared.
void WormholeNetwork::inject_analytic(mesh::NodeId src, mesh::NodeId dst,
                                      std::uint64_t tag) {
  ++metrics_.injected;
  ++stats_.analytic_packets;
  if (rec_ != nullptr)
    rec_->packet_inject(sim_.now(), tag, static_cast<std::int32_t>(src),
                        static_cast<std::int32_t>(dst));
  const std::vector<ChannelId> path = map_.route(src, dst);
  const auto hops = static_cast<std::int32_t>(path.size()) - 2;
  const double service = static_cast<double>(channel_hold_cycles());
  const double elapsed = std::max(sim_.now(), 1.0);
  double wait = 0;
  for (const ChannelId cid : path) {
    const double rho =
        std::min(busy_cycles_[static_cast<std::size_t>(cid)] / elapsed, 0.95);
    wait += rho / (1.0 - rho) * service;
  }
  for (const ChannelId cid : path)
    busy_cycles_[static_cast<std::size_t>(cid)] += service;
  const double latency = static_cast<double>(base_latency_cycles(hops)) + wait;
  const des::EventFn arrive = [](void* ctx, std::uint64_t arg) {
    auto& net = *static_cast<WormholeNetwork*>(ctx);
    net.publish(net.analytic_pending_.take(arg));
  };
  sim_.schedule_at(sim_.now() + latency, {arrive, this},
                   analytic_pending_.put(Delivery{tag, src, dst, latency, wait, hops}));
}

void WormholeNetwork::verify_match(std::uint64_t id, const VerifyRec& rec) {
  auto it = verify_pending_.find(id);
  if (it == verify_pending_.end()) {
    verify_pending_.emplace(id, rec);
    return;
  }
  const VerifyRec& other = it->second;
  if (other.from_shadow == rec.from_shadow)
    throw std::logic_error("WormholeNetwork verify: duplicate delivery for packet " +
                           std::to_string(id));
  if (other.time != rec.time || other.latency != rec.latency ||
      other.blocked != rec.blocked || other.hops != rec.hops)
    throw std::logic_error(
        "WormholeNetwork verify: batched/stepped delivery mismatch for packet " +
        std::to_string(id) + " (time " + std::to_string(other.time) + " vs " +
        std::to_string(rec.time) + ", latency " + std::to_string(other.latency) +
        " vs " + std::to_string(rec.latency) + ", blocked " +
        std::to_string(other.blocked) + " vs " + std::to_string(rec.blocked) + ")");
  verify_pending_.erase(it);
}

// Lock-step state cross-check, run at the end of every network-active
// timestamp (after both engines' passes): for every channel either engine
// touched, the effective holder and the waiter FIFO (order included) must
// agree. Batched reservations whose acquisition lies in the future must be
// free in the stepped engine — the per-hop header has not arrived yet.
void WormholeNetwork::verify_compare_states() {
  const double t = sim_.now();
  std::vector<ChannelId> all;
  all.swap(verify_touched_);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto eff = [t](const EngineState& st, const Channel& c) -> std::int64_t {
    if (c.holder < 0 || c.rel_time <= t) return -1;
    return static_cast<std::int64_t>(
        st.pool[static_cast<std::size_t>(c.holder)].seq);
  };
  for (const ChannelId cid : all) {
    const Channel& a = primary_->channels[static_cast<std::size_t>(cid)];
    const Channel& b = shadow_->channels[static_cast<std::size_t>(cid)];
    if (a.holder >= 0 && a.acq_time > t) {
      if (eff(*shadow_, b) != -1)
        throw std::logic_error(
            "WormholeNetwork verify: stepped holds channel " +
            std::to_string(cid) + " that batched only reserved");
    } else if (eff(*primary_, a) != eff(*shadow_, b)) {
      throw std::logic_error("WormholeNetwork verify: holder mismatch on channel " +
                             std::to_string(cid) + " at t=" + std::to_string(t));
    }
    std::int32_t wa = a.wait_head;
    std::int32_t wb = b.wait_head;
    while (wa >= 0 && wb >= 0) {
      const Packet& pa = primary_->pool[static_cast<std::size_t>(wa)];
      const Packet& pb = shadow_->pool[static_cast<std::size_t>(wb)];
      if (pa.seq != pb.seq || pa.attempt_time != pb.attempt_time)
        throw std::logic_error(
            "WormholeNetwork verify: waiter FIFO mismatch on channel " +
            std::to_string(cid) + " at t=" + std::to_string(t));
      wa = pa.next_waiter;
      wb = pb.next_waiter;
    }
    if (wa >= 0 || wb >= 0)
      throw std::logic_error(
          "WormholeNetwork verify: waiter FIFO length mismatch on channel " +
          std::to_string(cid) + " at t=" + std::to_string(t));
  }
}

void WormholeNetwork::reset_state(EngineState& st) {
  std::fill(st.channels.begin(), st.channels.end(), Channel{});
  st.pool.clear();
  st.free_pool.clear();
  st.dirty.clear();
  st.ejections.clear();
  st.next_seq = 0;
  st.arb_time = -1.0;
}

void WormholeNetwork::reset() {
  if (in_flight() != 0)
    throw std::logic_error("WormholeNetwork::reset: packets still in flight");
  if (!verify_pending_.empty())
    throw std::logic_error("WormholeNetwork::reset: unmatched verify deliveries");
  if (primary_ != nullptr) reset_state(*primary_);
  if (shadow_ != nullptr) reset_state(*shadow_);
  std::fill(busy_cycles_.begin(), busy_cycles_.end(), 0.0);
  analytic_pending_.clear();
  verify_touched_.clear();
  verify_cmp_armed_ = false;
  metrics_.reset();
  stats_.reset();
}

}  // namespace procsim::network
