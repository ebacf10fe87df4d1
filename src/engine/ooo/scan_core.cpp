#include "engine/ooo/scan_core.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "engine/core/schedule.hpp"
#include "runtime/checkpoint.hpp"

namespace oosp {

bool OooScanCore::partitions(const CompiledQuery& q, const EngineOptions& options) {
  return options.partition_by_key && q.partitionable() &&
         std::none_of(q.partition_slots().begin(), q.partition_slots().end(),
                      [](std::size_t s) { return s == CompiledStep::npos; });
}

std::vector<OooScanCore::Member> OooScanCore::make_members(std::vector<ScanMember> specs) {
  OOSP_REQUIRE(!specs.empty(), "OooScanCore: no member queries");
  std::vector<Member> out(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    OOSP_REQUIRE(specs[i].query != nullptr, "OooScanCore: null query");
    OOSP_REQUIRE(specs[i].sink != nullptr, "OooScanCore: null sink");
    out[i].query = std::move(specs[i].query);
    out[i].sink = std::move(specs[i].sink);
    out[i].trace = specs[i].trace;
  }
  return out;
}

OooScanCore::OooScanCore(std::vector<ScanMember> members, const EngineOptions& options,
                         EngineObs obs)
    : options_(options),
      obs_(obs),
      members_(make_members(std::move(members))),
      clock_(options_.slack),
      estimator_(options_.slack_estimator, options_.slack),
      admission_(options_, members_.front().stats) {
  OOSP_REQUIRE(options_.slack >= 0, "slack must be non-negative");
  if (members_.size() >= 2) mqo_obs_ = MqoObs::create(options_.metrics);
  partitioned_ = std::all_of(members_.begin(), members_.end(), [&](const Member& m) {
    return partitions(*m.query, options_);
  });

  std::vector<std::size_t> slot_key;      // stack slot -> partition attribute
  std::vector<std::size_t> slot_readers;  // stack slot -> (member, ordinal) readers
  for (std::uint32_t mi = 0; mi < members_.size(); ++mi) {
    Member& m = members_[mi];
    const CompiledQuery& q = *m.query;
    window_ = std::max(window_, q.window());
    m.ordinal_of_step.assign(q.num_steps(), CompiledStep::npos);
    for (std::size_t s = 0; s < q.num_steps(); ++s) {
      auto& ordinals = q.step(s).negated ? m.step_of_negated : m.step_of_positive;
      m.ordinal_of_step[s] = ordinals.size();
      ordinals.push_back(s);
    }
    // One predicate schedule per anchor ordinal: binding order
    // a, a−1, …, 0, a+1, …, n−1 (as pattern step indices).
    const std::size_t n = m.step_of_positive.size();
    m.anchored_schedule.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
      std::vector<std::size_t> order;
      order.reserve(n);
      for (std::size_t k = a + 1; k-- > 0;) order.push_back(m.step_of_positive[k]);
      for (std::size_t k = a + 1; k < n; ++k) order.push_back(m.step_of_positive[k]);
      m.anchored_schedule[a] = build_predicate_schedule(q, order);
    }
    m.bindings.assign(q.num_steps(), nullptr);
    m.neg_check_predicates.resize(m.step_of_negated.size());
    for (std::size_t i = 0; i < m.step_of_negated.size(); ++i) {
      for (std::size_t pi = 0; pi < q.predicates().size(); ++pi) {
        const CompiledPredicate& p = q.predicates()[pi];
        if (p.references(m.step_of_negated[i]) && p.steps().size() > 1)
          m.neg_check_predicates[i].push_back(pi);
      }
    }
    m.first_negative = negative_owner_.size();
    negative_owner_.resize(negative_owner_.size() + m.step_of_negated.size(), mi);

    m.slot_of_ordinal.resize(n);
    for (std::size_t s = 0; s < q.num_steps(); ++s) {
      const TypeId type = q.step(s).type;
      const std::size_t key = partitioned_ ? q.partition_slots()[s] : CompiledStep::npos;
      if (type >= readers_.size()) {
        readers_.resize(type + 1);
        audience_.resize(type + 1);
      }
      Reader r{mi, static_cast<std::uint32_t>(s), 0, 0, key, q.step(s).negated};
      if (r.negated) {
        r.index = m.first_negative + m.ordinal_of_step[s];
      } else {
        r.index = m.ordinal_of_step[s];
        std::size_t slot = 0;
        while (slot < slot_type_.size() && (slot_type_[slot] != type || slot_key[slot] != key))
          ++slot;
        if (slot == slot_type_.size()) {
          slot_type_.push_back(type);
          slot_key.push_back(key);
          slot_readers.push_back(0);
        }
        ++slot_readers[slot];
        r.slot = slot;
        m.slot_of_ordinal[r.index] = slot;
      }
      readers_[type].push_back(r);
      if (audience_[type].empty() || audience_[type].back() != mi) audience_[type].push_back(mi);
    }
    all_members_.push_back(mi);
  }
  for (Member& m : members_) {
    m.recheck.resize(m.slot_of_ordinal.size());
    for (std::size_t k = 0; k < m.slot_of_ordinal.size(); ++k)
      m.recheck[k] = slot_readers[m.slot_of_ordinal[k]] > 1;
  }
  inserted_at_.assign(slot_type_.size(), CompiledStep::npos);
  if (!partitioned_) root_ = make_shard();
}

OooScanCore::Shard OooScanCore::make_shard() const {
  Shard sh;
  sh.stacks.resize(slot_type_.size());
  sh.negatives.reserve(negative_owner_.size());
  for (std::size_t i = 0; i < negative_owner_.size(); ++i) {
    const Member& m = members_[negative_owner_[i]];
    sh.negatives.emplace_back(*m.query, m.step_of_negated[i - m.first_negative]);
  }
  return sh;
}

OooScanCore::Shard& OooScanCore::shard_for(const Value& key) {
  if (!partitioned_) return root_;
  auto it = shards_.find(key);
  if (it == shards_.end()) it = shards_.emplace(key, make_shard()).first;
  return it->second;
}

OooScanCore::Shard* OooScanCore::find_shard(const Value& key) {
  if (!partitioned_) return &root_;
  auto it = shards_.find(key);
  return it == shards_.end() ? nullptr : &it->second;
}

void OooScanCore::maybe_grow_slack() {
  const Timestamp est = estimator_.estimate();
  if (est > clock_.slack()) {
    clock_.set_slack(est);
    ++physical().slack_grows;
  }
}

void OooScanCore::on_event(const Event& e) {
  const Event* one = &e;
  on_batch(std::span<const Event* const>(&one, 1));
}

void OooScanCore::on_batch(std::span<const Event* const> batch) {
  if (batch.empty()) return;
  started_ = true;

  // Phase A — arrival order: admission, clock observation, adaptive
  // growth, and the contract-violation policy are taken per event exactly
  // as the per-event path would, so the admitted multiset is identical
  // for any batching of the same arrival sequence.
  std::uint64_t seen = 0;
  batch_admitted_.clear();
  for (const Event* pe : batch) {
    const Event& e = *pe;
    const auto& audience = audience_of(e.type);
    for (const std::uint32_t mi : audience) ++members_[mi].stats.events_seen;
    seen += audience.size();
    if (!admission_.admit(e)) continue;
    const Timestamp lateness = clock_.observe(e);
    if (lateness > 0) {
      for (const std::uint32_t mi : audience) ++members_[mi].stats.late_events;
      EngineObs::inc(obs_.late, audience.size());
    }
    if (options_.adaptive_slack) {
      estimator_.observe(lateness);
      maybe_grow_slack();
    }
    seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
    if (e.ts <= seal_watermark_) {
      // The effective contract is broken: seal/purge decisions at or
      // above this timestamp are already final. LatePolicy decides its
      // fate.
      for (const std::uint32_t mi : audience) ++members_[mi].stats.contract_violations;
      EngineObs::inc(obs_.violations, audience.size());
      if (!admission_.admit_violation(e)) continue;
    }
    batch_admitted_.push_back(AdmittedEvent{pe, seal_watermark_});
    // Purge cadence is observable state: resolution consults the
    // negation buffers, so WHICH watermark a purge ran at changes what a
    // later seal sees. Count exactly the events the per-event path
    // counted (admitted, including policy-admitted violations) and
    // record the watermark in effect at the crossing; the batch tail
    // replays the passes in order. Slack shrinks belong to the cadence
    // point too, so the recorded horizon matches per-event behaviour.
    if (options_.purge_period != 0 && ++events_since_purge_ >= options_.purge_period) {
      events_since_purge_ = 0;
      apply_adaptive_shrink();
      batch_purge_marks_.push_back(seal_watermark_);
    }
  }
  EngineObs::inc(obs_.events, seen);

  // Phase B — canonical intra-batch order. Construction anchors a match
  // at its last-inserted constituent; the match set is invariant under
  // the insertion order of a fixed event multiset, so sorting changes
  // nothing semantically while making the splice pattern append-heavy.
  std::sort(batch_admitted_.begin(), batch_admitted_.end(),
            [](const AdmittedEvent& a, const AdmittedEvent& b) {
              return TsIdLess{}(*a.e, *b.e);
            });

  // Phase C — splice and construct.
  for (const AdmittedEvent& ae : batch_admitted_) {
    arrival_watermark_ = ae.wm;
    insert_event(*ae.e);
  }

  // Seal/purge replay. Deferring sealing itself is sound: an interval an
  // earlier event's watermark sealed cannot gain an in-contract negative
  // from a later event (its ts would exceed the watermark). But a match
  // that sealed BETWEEN two purge passes must be resolved against the
  // buffer state between them — purging first with a later watermark
  // could drop a violating negative the per-event path still saw.
  // Replaying "resolve up to the mark, then purge at the mark" for each
  // cadence crossing Phase A recorded reproduces the per-event
  // interleaving exactly; in-contract events inserted later in the batch
  // sit above every recorded horizon and perturb neither step.
  // A pass at mark m is observable only through resolutions that occur
  // after it and before the next pass — i.e. entries due at a watermark
  // <= the next mark. With nothing due in that gap, the next pass (a
  // deeper horizon; purge state depends only on inserts and the deepest
  // threshold applied) subsumes this one, so skip it. The final mark
  // always runs: it is the purge state the next batch starts from.
  const auto next_due = [this]() -> Timestamp {
    Timestamp t = kMaxTimestamp;
    for (const Member& m : members_) {
      if (!m.pending.empty()) t = std::min(t, m.pending.top().seal_ts);
      if (!m.unsealed_emitted.empty()) t = std::min(t, m.unsealed_emitted.front().seal_ts);
    }
    return t;
  };
  for (std::size_t i = 0; i < batch_purge_marks_.size(); ++i) {
    const bool last = i + 1 == batch_purge_marks_.size();
    if (!last && next_due() - 1 > batch_purge_marks_[i + 1]) continue;
    process_pending_up_to(batch_purge_marks_[i]);
    purge_pass(batch_purge_marks_[i]);
  }
  batch_purge_marks_.clear();
  process_pending_up_to(seal_watermark_);
  std::uint64_t live = 0;
  for (const Member& m : members_) live += m.stats.footprint();
  physical().note_footprint(live + admission_.quarantine_size());
  EngineObs::set(obs_.footprint, static_cast<std::int64_t>(live));
  EngineObs::set(obs_.effective_slack, clock_.slack());
}

void OooScanCore::insert_event(const Event& e) {
  const auto& readers = readers_of(e.type);
  if (readers.empty()) return;  // a clock tick: observed, never stored
  for (const std::uint32_t mi : audience_[e.type]) ++members_[mi].stats.events_relevant;
  EventHandle h = kNullEventHandle;  // allocated by the first structure keeping e
  const auto keep = [&] {
    if (h == kNullEventHandle) {
      h = arena_.alloc(e);
    } else {
      arena_.retain(h);
    }
    return h;
  };
  // Readers of one type almost always key on the same attribute: look
  // the shard up once per attribute, not once per reader.
  Shard* shard_ptr = nullptr;
  std::size_t shard_key_slot = CompiledStep::npos;
  Value key;
  for (const Reader& r : readers) {
    Member& m = members_[r.member];
    if (!passes_local(m, r.step, e)) continue;
    if (shard_ptr == nullptr || r.key_slot != shard_key_slot) {
      shard_key_slot = r.key_slot;
      if (partitioned_) key = e.attr(r.key_slot);
      shard_ptr = &shard_for(key);
    }
    Shard& shard = *shard_ptr;
    if (r.negated) {
      shard.negatives[r.index].insert(e.ts, e.id, keep());
      m.stats.note_buffered(1);
      if (options_.aggressive_negation) handle_late_negative(m, key, e, r.step);
      continue;
    }
    SortedStack& stack = shard.stacks[r.slot];
    std::size_t& at = inserted_at_[r.slot];
    if (at == CompiledStep::npos) {
      at = stack.insert(e.ts, e.id, keep());
      physical().note_instance_added();
      EngineObs::inc(mqo_obs_.shared_insertions);
    }
    trace_span(m, r.index == 0 ? TraceKind::kStart : TraceKind::kStep, e.ts, nullptr, &e);
    construct_anchored(m, shard, key, r.index, stack[at]);
  }
  for (const Reader& r : readers)
    if (!r.negated) inserted_at_[r.slot] = CompiledStep::npos;
}

bool OooScanCore::passes_local(Member& m, std::size_t step, const Event& e) {
  const CompiledQuery& q = *m.query;
  m.bindings[step] = &e;
  bool ok = true;
  for (const std::size_t pi : q.step(step).local_predicates) {
    ++m.stats.predicate_evals;
    if (!q.predicates()[pi].eval(m.bindings)) {
      ok = false;
      break;
    }
  }
  m.bindings[step] = nullptr;
  return ok;
}

void OooScanCore::construct_anchored(Member& m, Shard& shard, const Value& key,
                                     std::size_t anchor_ordinal, const OooInstance& anchor) {
  const std::size_t anchor_step = m.step_of_positive[anchor_ordinal];
  m.bindings[anchor_step] = &arena_.get(anchor.handle);
  ++m.stats.construction_visits;
  // Multi-step predicates are never ready at position 0, so descend
  // straight away.
  if (anchor_ordinal > 0) {
    left_phase(m, shard, key, anchor_ordinal - 1, anchor_ordinal, anchor);
  } else if (m.step_of_positive.size() > 1) {
    right_phase(m, shard, key, 1, anchor_ordinal);
  } else {
    complete_candidate(m, shard, key);
  }
  m.bindings[anchor_step] = nullptr;
}

bool OooScanCore::accept_visit(Member& m, std::size_t ordinal, std::size_t anchor_ordinal,
                               std::size_t sched_pos) {
  const CompiledQuery& q = *m.query;
  // A stack shared with other steps holds instances only SOME reader's
  // local predicates admitted; this step filters its own here.
  if (m.recheck[ordinal]) {
    for (const std::size_t pi : q.step(m.step_of_positive[ordinal]).local_predicates) {
      ++m.stats.predicate_evals;
      if (!q.predicates()[pi].eval(m.bindings)) return false;
    }
  }
  for (const std::size_t pi : m.anchored_schedule[anchor_ordinal][sched_pos]) {
    ++m.stats.predicate_evals;
    if (!q.predicates()[pi].eval(m.bindings)) return false;
  }
  return true;
}

void OooScanCore::left_phase(Member& m, Shard& shard, const Value& key, std::size_t ordinal,
                             std::size_t anchor_ordinal, const OooInstance& successor) {
  const SortedStack& stack = shard.stacks[m.slot_of_ordinal[ordinal]];
  const std::size_t step = m.step_of_positive[ordinal];
  const Timestamp anchor_ts = m.bindings[m.step_of_positive[anchor_ordinal]]->ts;
  // Predecessor range: everything with ts strictly below the successor's,
  // loosely floored by the window anchored at the anchor (the eventual
  // last binding is >= anchor_ts, so nothing below anchor_ts − W can be
  // the first element of a valid match; the exact window check happens in
  // the right phase against the actual first binding).
  const std::size_t ub = stack.count_ts_below(successor.ts);
  const std::size_t floor = stack.count_ts_below(anchor_ts - m.query->window());
  const std::size_t sched_pos = anchor_ordinal - ordinal;
  for (std::size_t v = ub; v-- > floor;) {
    const OooInstance& inst = stack[v];
    ++m.stats.construction_visits;
    m.bindings[step] = &arena_.get(inst.handle);
    if (!accept_visit(m, ordinal, anchor_ordinal, sched_pos)) continue;
    if (ordinal > 0) {
      left_phase(m, shard, key, ordinal - 1, anchor_ordinal, inst);
    } else if (anchor_ordinal + 1 < m.step_of_positive.size()) {
      right_phase(m, shard, key, anchor_ordinal + 1, anchor_ordinal);
    } else {
      complete_candidate(m, shard, key);
    }
  }
  m.bindings[step] = nullptr;
}

void OooScanCore::right_phase(Member& m, Shard& shard, const Value& key, std::size_t ordinal,
                              std::size_t anchor_ordinal) {
  const SortedStack& stack = shard.stacks[m.slot_of_ordinal[ordinal]];
  const std::size_t step = m.step_of_positive[ordinal];
  const Timestamp prev_ts = m.bindings[m.step_of_positive[ordinal - 1]]->ts;
  const Timestamp ceiling = m.bindings[m.step_of_positive[0]]->ts + m.query->window();
  for (std::size_t v = stack.first_ts_above(prev_ts); v < stack.size(); ++v) {
    const OooInstance& inst = stack[v];
    if (inst.ts > ceiling) break;  // sorted: all further fail the window
    ++m.stats.construction_visits;
    m.bindings[step] = &arena_.get(inst.handle);
    if (!accept_visit(m, ordinal, anchor_ordinal, ordinal)) continue;
    if (ordinal + 1 < m.step_of_positive.size()) {
      right_phase(m, shard, key, ordinal + 1, anchor_ordinal);
    } else {
      complete_candidate(m, shard, key);
    }
  }
  m.bindings[step] = nullptr;
}

void OooScanCore::complete_candidate(Member& m, Shard& shard, const Value& key) {
  const CompiledQuery& q = *m.query;
  std::vector<NegCheck> checks;
  checks.reserve(m.step_of_negated.size());
  Timestamp seal_ts = kMinTimestamp;
  for (std::size_t i = 0; i < m.step_of_negated.size(); ++i) {
    const CompiledStep& s = q.step(m.step_of_negated[i]);
    const Timestamp lo = m.bindings[s.prev_positive]->ts;
    const Timestamp hi = m.bindings[s.next_positive]->ts;
    checks.push_back(NegCheck{i, lo, hi});
    seal_ts = std::max(seal_ts, hi);
  }
  if (!checks.empty() && violated_now(m, shard, checks, m.bindings)) return;

  Match match;
  match.events.reserve(m.step_of_positive.size());
  for (const std::size_t p : m.step_of_positive) match.events.push_back(*m.bindings[p]);

  if (checks.empty() || sealed_at_arrival(seal_ts)) {
    match.detection_clock = clock_.now();
    EngineObs::observe(obs_.latency_wall_us, 0);  // emitted within the arrival call
    emit(m, std::move(match));
    return;
  }
  if (options_.aggressive_negation) {
    // Optimistic emission: report now, remember the match while it is
    // still revocable so a late negative can retract it. Keep the list
    // ordered by seal_ts (insert after equal keys — stable).
    match.detection_clock = clock_.now();
    const auto it = std::upper_bound(
        m.unsealed_emitted.begin(), m.unsealed_emitted.end(), seal_ts,
        [](Timestamp t, const PendingMatch& pm) { return t < pm.seal_ts; });
    m.unsealed_emitted.insert(it, PendingMatch{match, std::move(checks), seal_ts, key});
    m.stats.note_pending_added();
    EngineObs::observe(obs_.latency_wall_us, 0);
    emit(m, std::move(match));
    return;
  }
  PendingMatch pm{std::move(match), std::move(checks), seal_ts, key};
  if (obs_.enabled()) pm.held_since = std::chrono::steady_clock::now();
  m.pending.push(std::move(pm));
  m.stats.note_pending_added();
}

void OooScanCore::emit(Member& m, Match&& match) {
  ++m.stats.matches_emitted;
  if (obs_.matches != nullptr) {
    obs_.matches->inc();
    if (match.detection_clock != kMinTimestamp)
      obs_.latency_stream->observe_signed(match.detection_delay());
  }
  if (m.trace)
    m.trace(TraceSpan{TraceKind::kEmit, match.last_ts(), match.detection_clock, &match,
                      nullptr});
  m.sink->on_match(std::move(match));
}

std::vector<const Event*> OooScanCore::positive_bindings(const Member& m,
                                                         const Match& match) const {
  std::vector<const Event*> bindings(m.query->num_steps(), nullptr);
  for (std::size_t k = 0; k < m.step_of_positive.size(); ++k)
    bindings[m.step_of_positive[k]] = &match.events[k];
  return bindings;
}

void OooScanCore::handle_late_negative(Member& m, const Value& key, const Event& e,
                                       std::size_t step) {
  const std::size_t ordinal = m.ordinal_of_step[step];
  // A victim needs e.ts strictly inside some interval (lo, hi), and
  // hi <= seal_ts, so only entries with seal_ts > e.ts qualify — the
  // ordered list makes that a suffix.
  auto it = std::upper_bound(
      m.unsealed_emitted.begin(), m.unsealed_emitted.end(), e.ts,
      [](Timestamp t, const PendingMatch& pm) { return t < pm.seal_ts; });
  while (it != m.unsealed_emitted.end()) {
    PendingMatch& pm = *it;
    bool retract = false;
    if (!partitioned_ || pm.shard_key == key) {
      for (const NegCheck& c : pm.checks) {
        if (c.ordinal != ordinal || e.ts <= c.lo || e.ts >= c.hi) continue;
        std::vector<const Event*> bindings = positive_bindings(m, pm.match);
        bindings[step] = &e;
        retract = true;
        for (const std::size_t pi : m.neg_check_predicates[ordinal]) {
          ++m.stats.predicate_evals;
          if (!m.query->predicates()[pi].eval(bindings)) {
            retract = false;
            break;
          }
        }
        if (retract) break;
      }
    }
    if (retract) {
      trace_span(m, TraceKind::kRetract, pm.match.last_ts(), &pm.match, &e);
      m.sink->on_retract(pm.match);
      ++m.stats.matches_retracted;
      EngineObs::inc(obs_.retractions);
      --m.stats.pending_matches;
      it = m.unsealed_emitted.erase(it);
    } else {
      ++it;
    }
  }
}

bool OooScanCore::violated_now(Member& m, Shard& shard, const std::vector<NegCheck>& checks,
                               std::span<const Event*> bindings) {
  for (const NegCheck& c : checks) {
    if (shard.negatives[m.first_negative + c.ordinal].violates(arena_, c.lo, c.hi, bindings,
                                                               m.stats.predicate_evals))
      return true;
  }
  return false;
}

void OooScanCore::process_pending_up_to(Timestamp watermark) {
  if (!clock_.started()) return;
  // Same sealing rule as sealed_at_arrival(), evaluated against a
  // possibly earlier watermark: replaying a mid-batch cadence point must
  // not resolve matches that per-event would still have held then.
  const auto sealed_at = [watermark](Timestamp interval_end) {
    return watermark >= interval_end - 1;
  };
  for (Member& m : members_) {
    while (!m.pending.empty() && sealed_at(m.pending.top().seal_ts)) {
      PendingMatch pm = m.pending.top();
      m.pending.pop();
      --m.stats.pending_matches;
      resolve_pending(m, std::move(pm));
    }
    // Sealed entries are final — no retraction can reach them anymore.
    // sealed_at() is monotone in seal_ts, so they form a prefix of the
    // ordered list: pop it instead of sweeping everything.
    std::size_t removed = 0;
    while (!m.unsealed_emitted.empty() && sealed_at(m.unsealed_emitted.front().seal_ts)) {
      const PendingMatch& pm = m.unsealed_emitted.front();
      trace_span(m, TraceKind::kSeal, pm.match.last_ts(), &pm.match);
      m.unsealed_emitted.pop_front();
      ++removed;
    }
    m.stats.pending_matches -= removed;
    EngineObs::inc(obs_.seals, removed);
  }
}

void OooScanCore::resolve_pending(Member& m, PendingMatch&& pm) {
  trace_span(m, TraceKind::kSeal, pm.match.last_ts(), &pm.match);
  EngineObs::inc(obs_.seals);
  Shard* shard = find_shard(pm.shard_key);
  if (shard != nullptr) {
    std::vector<const Event*> bindings = positive_bindings(m, pm.match);
    if (violated_now(m, *shard, pm.checks, bindings)) {
      ++m.stats.matches_cancelled;
      EngineObs::inc(obs_.cancels);
      trace_span(m, TraceKind::kCancel, pm.match.last_ts(), &pm.match);
      return;
    }
  }
  if (obs_.latency_wall_us != nullptr) {
    const auto waited = std::chrono::steady_clock::now() - pm.held_since;
    obs_.latency_wall_us->observe_signed(
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count());
  }
  pm.match.detection_clock = clock_.now();
  emit(m, std::move(pm.match));
}

void OooScanCore::finish() {
  for (Member& m : members_) {
    // End of stream: every interval is final.
    while (!m.pending.empty()) {
      PendingMatch pm = m.pending.top();
      m.pending.pop();
      --m.stats.pending_matches;
      resolve_pending(m, std::move(pm));
    }
    // Aggressive policy: unsealed emissions become final — already
    // delivered, nothing left to do beyond dropping the revocation state.
    m.stats.pending_matches -= m.unsealed_emitted.size();
    m.unsealed_emitted.clear();
  }
  apply_adaptive_shrink();
  purge_pass(seal_watermark_);
}

void OooScanCore::apply_adaptive_shrink() {
  if (!options_.adaptive_slack || !clock_.started()) return;
  // A purge pass is the only point where the effective slack may SHRINK:
  // growing mid-stream is always safe (it merely defers future purges),
  // but shrinking advances the horizon, and doing that between purges
  // would let sealing race ahead of the state the estimator said was
  // still needed. The watermark keeps the resize monotone either way.
  const Timestamp est = estimator_.estimate();
  if (est < clock_.slack()) {
    clock_.set_slack(est);
    ++physical().slack_shrinks;
  }
  seal_watermark_ = std::max(seal_watermark_, clock_.seal_point());
}

void OooScanCore::purge_pass(Timestamp horizon) {
  if (!clock_.started()) return;
  // See DESIGN.md §3.3: any future admitted event has ts > seal
  // watermark, and all match elements fit in a window of width W, so
  // positive state below watermark − W + 1 is dead. Negatives are
  // consulted until the intervals that could contain them seal, which
  // happens by clock ≈ ts + W + K; the extra −1 absorbs the strictness
  // of interval bounds. (With a fixed K this is exactly the paper's
  // clock − K − W horizon; deriving it from the monotone watermark keeps
  // adaptive resizes safe — the horizon never moves backwards and never
  // overtakes a sealing decision.) `horizon` is the watermark at the
  // cadence crossing being replayed — the current one at finish().
  const Timestamp pos_threshold =
      horizon < kMinTimestamp + window_ ? kMinTimestamp + 1 : horizon - window_ + 1;
  const Timestamp neg_threshold = pos_threshold - 1;
  ++physical().purge_passes;
  EngineObs::inc(obs_.purge_passes);
  for (const Member& m : members_) trace_span(m, TraceKind::kPurge, pos_threshold);
  if (partitioned_) {
    for (auto it = shards_.begin(); it != shards_.end();) {
      purge_shard(it->second, pos_threshold, neg_threshold);
      const bool empty =
          std::all_of(it->second.stacks.begin(), it->second.stacks.end(),
                      [](const SortedStack& s) { return s.empty(); }) &&
          std::all_of(it->second.negatives.begin(), it->second.negatives.end(),
                      [](const NegativeBuffer& b) { return b.size() == 0; });
      it = empty ? shards_.erase(it) : std::next(it);
    }
  } else {
    purge_shard(root_, pos_threshold, neg_threshold);
  }
}

void OooScanCore::purge_shard(Shard& shard, Timestamp pos_threshold, Timestamp neg_threshold) {
  for (SortedStack& st : shard.stacks) {
    const std::size_t removed = st.purge_before(pos_threshold, arena_);
    if (removed) {
      physical().note_instances_removed(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
  for (std::size_t i = 0; i < shard.negatives.size(); ++i) {
    const std::size_t removed = shard.negatives[i].purge_before(neg_threshold, arena_);
    if (removed) {
      members_[negative_owner_[i]].stats.note_unbuffered(removed);
      EngineObs::inc(obs_.purged, removed);
    }
  }
}

EngineStats OooScanCore::member_stats(std::size_t i) const {
  EngineStats s = members_.at(i).stats;
  s.effective_slack = clock_.slack();
  return s;
}

void OooScanCore::write_shard(CheckpointWriter& w, const Shard& sh) const {
  w.tag("shd");
  w.u64(sh.stacks.size());
  for (const SortedStack& st : sh.stacks) {
    w.u64(st.size());
    for (std::size_t i = 0; i < st.size(); ++i) w.event(arena_.get(st[i].handle));
  }
  w.u64(sh.negatives.size());
  for (const NegativeBuffer& nb : sh.negatives) write_negative_buffer(w, nb, arena_);
}

OooScanCore::Shard OooScanCore::read_shard(CheckpointReader& r) {
  r.expect_tag("shd");
  Shard sh = make_shard();
  if (r.count() != sh.stacks.size())
    throw CheckpointError("ooo checkpoint stack count disagrees with query");
  for (SortedStack& st : sh.stacks) {
    const std::size_t n = r.count(8);
    std::vector<OooInstance> items;
    items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Event e = r.event();
      items.push_back(OooInstance{e.ts, e.id, arena_.alloc(e)});
    }
    st.set_items(std::move(items));
  }
  if (r.count() != sh.negatives.size())
    throw CheckpointError("ooo checkpoint negation count disagrees with query");
  for (NegativeBuffer& nb : sh.negatives) read_negative_buffer(r, nb, arena_);
  return sh;
}

void OooScanCore::write_pending(CheckpointWriter& w, const PendingMatch& pm) {
  w.tag("pnd");
  w.match(pm.match);
  w.u64(pm.checks.size());
  for (const NegCheck& c : pm.checks) {
    w.u64(c.ordinal);
    w.i64(c.lo);
    w.i64(c.hi);
  }
  w.i64(pm.seal_ts);
  w.value(pm.shard_key);
  // held_since is a wall-clock point; restore re-stamps it with now(), so
  // the sealing-wait histogram charges recovery wait to the new run.
}

OooScanCore::PendingMatch OooScanCore::read_pending(CheckpointReader& r) {
  r.expect_tag("pnd");
  PendingMatch pm;
  pm.match = r.match();
  const std::size_t n = r.count(8);
  pm.checks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    NegCheck c;
    c.ordinal = static_cast<std::size_t>(r.u64());
    c.lo = r.i64();
    c.hi = r.i64();
    pm.checks.push_back(c);
  }
  pm.seal_ts = r.i64();
  pm.shard_key = r.value();
  pm.held_since = std::chrono::steady_clock::now();
  return pm;
}

void OooScanCore::snapshot(CheckpointWriter& w) const {
  for (const Member& m : members_) write_engine_guard(w, name(), m.query->text());
  for (const Member& m : members_) w.stats(m.stats);
  write_clock(w, clock_);
  write_estimator(w, estimator_);
  write_admission(w, admission_);
  w.i64(seal_watermark_);
  w.u64(events_since_purge_);
  w.boolean(partitioned_);
  if (partitioned_) {
    std::vector<const std::pair<const Value, Shard>*> entries;
    entries.reserve(shards_.size());
    for (const auto& kv : shards_) entries.push_back(&kv);
    std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
      return a->first.compare(b->first) < 0;
    });
    w.u64(entries.size());
    for (const auto* kv : entries) {
      w.value(kv->first);
      write_shard(w, kv->second);
    }
  } else {
    write_shard(w, root_);
  }
  for (const Member& m : members_) {
    // The pending heap's internal layout depends on insertion history;
    // serialize its contents canonically sorted so equal logical state
    // snapshots to equal bytes. Restore re-heapifies by pushing.
    auto heap = m.pending;
    std::vector<PendingMatch> pend;
    pend.reserve(heap.size());
    while (!heap.empty()) {
      pend.push_back(heap.top());
      heap.pop();
    }
    std::sort(pend.begin(), pend.end(), [](const PendingMatch& a, const PendingMatch& b) {
      if (a.seal_ts != b.seal_ts) return a.seal_ts < b.seal_ts;
      return match_key(a.match) < match_key(b.match);
    });
    w.u64(pend.size());
    for (const PendingMatch& pm : pend) write_pending(w, pm);
    // unsealed_emitted is kept in deterministic (seal_ts, insertion)
    // order; preserve verbatim.
    w.u64(m.unsealed_emitted.size());
    for (const PendingMatch& pm : m.unsealed_emitted) write_pending(w, pm);
  }
}

void OooScanCore::restore(CheckpointReader& r) {
  OOSP_REQUIRE(!started_, "OooScanCore::restore after events were processed");
  for (const Member& m : members_) read_engine_guard(r, name(), m.query->text());
  for (Member& m : members_) m.stats = r.stats();
  read_clock(r, clock_);
  read_estimator(r, estimator_);
  read_admission(r, admission_);
  seal_watermark_ = r.i64();
  events_since_purge_ = static_cast<std::size_t>(r.u64());
  if (r.boolean() != partitioned_)
    throw CheckpointError("ooo checkpoint partitioning disagrees with options");
  // Structures are rebuilt wholesale; every live handle dies with them.
  arena_.clear();
  shards_.clear();
  if (partitioned_) {
    const std::size_t n = r.count();
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Value key = r.value();
      Shard sh = read_shard(r);
      shards_.emplace(std::move(key), std::move(sh));
    }
  } else {
    root_ = read_shard(r);
  }
  for (Member& m : members_) {
    m.pending = {};
    const std::size_t n_pending = r.count();
    for (std::size_t i = 0; i < n_pending; ++i) m.pending.push(read_pending(r));
    m.unsealed_emitted.clear();
    const std::size_t n_unsealed = r.count();
    for (std::size_t i = 0; i < n_unsealed; ++i) m.unsealed_emitted.push_back(read_pending(r));
  }
  started_ = clock_.started();
}

}  // namespace oosp
