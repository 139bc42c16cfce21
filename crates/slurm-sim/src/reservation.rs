//! Resource-availability bookkeeping for backfill.
//!
//! Three pieces:
//!
//! * [`ReleaseMap`] — a tally from *predicted node release instants*
//!   (based on requested times) to node counts, counted from the node
//!   table's per-node releases: what [`Profile::build`] reads, so the
//!   validation oracle never depends on the cache it checks.
//! * [`Profile`] — the per-pass step function of free whole nodes over
//!   future time ("the map of jobs reservations in time", paper §3.1). Both
//!   backfill variants and SD-Policy's `static_end` estimate query it via
//!   [`Profile::earliest_start`]; conservative mode also writes reservations
//!   back into it.
//! * `Availability` — the simulator's cached profile, patched at every
//!   release change, with a version that says when its steps may have
//!   moved.

use crate::timing::{self, Probe};
use drom::NodeRecord;
use simkit::SimTime;
use std::collections::BTreeMap;

/// How many busy nodes release at each predicted instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReleaseMap {
    /// release instant → number of nodes releasing then.
    counts: BTreeMap<SimTime, u32>,
}

impl ReleaseMap {
    /// The tally of the records' releases.
    pub fn recount(records: &[NodeRecord]) -> ReleaseMap {
        let mut rm = ReleaseMap::default();
        for rec in records {
            rm.retally(None, rec.release(), 1);
        }
        rm
    }

    /// Moves `nodes` nodes from release instant `old` to `new` (`None` =
    /// the node is empty).
    pub fn retally(&mut self, old: Option<SimTime>, new: Option<SimTime>, nodes: u32) {
        if let Some(old) = old {
            match self.counts.get_mut(&old) {
                Some(c) if *c > nodes => *c -= nodes,
                _ => {
                    self.counts.remove(&old);
                }
            }
        }
        if let Some(new) = new {
            *self.counts.entry(new).or_insert(0) += nodes;
        }
    }

    /// The latest predicted release, `None` when every node is empty.
    pub fn last(&self) -> Option<SimTime> {
        self.counts.keys().next_back().copied()
    }

    /// `(instant, nodes)` pairs in ascending order, skipping instants not
    /// after `now` (those nodes are effectively free already).
    pub(crate) fn upcoming(&self, now: SimTime) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.counts
            .range((
                std::ops::Bound::Excluded(now),
                std::ops::Bound::Unbounded,
            ))
            .map(|(&t, &c)| (t, c))
    }

    /// Nodes whose predicted release is at or before `now` (late jobs —
    /// running past their request would be killed by real SLURM; the
    /// simulator keeps them and treats them as "releasing imminently").
    pub(crate) fn overdue(&self, now: SimTime) -> u32 {
        self.counts.range(..=now).map(|(_, &c)| c).sum()
    }
}

/// Groups a whole allocation's `(old, new)` release moves into runs (the
/// node table hands over each old instant as it sets the new one):
/// consecutive nodes making the same move — a whole-job start or end moves
/// every node the same way — are heard once, as `moved(old, new, nodes)`,
/// and nodes whose release did not move are not heard at all. The
/// simulator patches its availability profile once per run.
pub(crate) fn group_release_moves(
    updates: impl IntoIterator<Item = (Option<SimTime>, Option<SimTime>)>,
    mut moved: impl FnMut(Option<SimTime>, Option<SimTime>, u32),
) {
    let mut run: (Option<SimTime>, Option<SimTime>, u32) = (None, None, 0);
    for (old, when) in updates {
        if old == when {
            continue;
        }
        if run.2 > 0 && (run.0, run.1) != (old, when) {
            moved(run.0, run.1, run.2);
            run.2 = 0;
        }
        run = (old, when, run.2 + 1);
    }
    if run.2 > 0 {
        moved(run.0, run.1, run.2);
    }
}

/// Step function of free whole nodes over `[now, ∞)`.
///
/// `free[i]` holds during `[times[i], times[i+1])`; the last value extends
/// forever. Reservations subtract capacity over an interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    times: Vec<SimTime>,
    free: Vec<i64>,
}

/// A window [`Profile::earliest_slot`] found, with the indices its sweep
/// walked to. Valid only until the profile next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The earliest start (`SimTime::MAX` if the job never fits).
    pub start: SimTime,
    /// The segment holding `start` (0 when `start` is at or before the origin).
    pub seg: usize,
    /// The first step at or after `start + duration`, or the profile's length.
    pub end: usize,
}

/// Where `t` sits in a profile's steps, from `binary_search`: `(false, i)`
/// on step `i`, `(true, i)` when a step at `t` would be inserted at `i`.
fn boundary(found: Result<usize, usize>) -> (bool, usize) {
    found.map_or_else(|i| (true, i), |i| (false, i))
}

/// An empty placeholder (no domain). Only used as the resting value of
/// reusable pass buffers; every real profile starts from [`Profile::build`],
/// [`Profile::flat`] or a `clone_from` of a live profile.
impl Default for Profile {
    fn default() -> Self {
        Profile {
            times: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl Profile {
    /// Builds the profile at `now` given currently free nodes and the
    /// release map. Overdue releases are treated as released at `now + 1`
    /// (imminent but not instant, so the present remains truthful).
    pub fn build(now: SimTime, free_now: u32, releases: &ReleaseMap) -> Profile {
        let mut times = vec![now];
        let mut free = vec![free_now as i64];
        let overdue = releases.overdue(now);
        if overdue > 0 {
            times.push(now.after(1));
            free.push(free_now as i64 + overdue as i64);
        }
        for (t, c) in releases.upcoming(now) {
            let cur = *free.last().unwrap();
            if *times.last().unwrap() == t {
                *free.last_mut().unwrap() = cur + c as i64;
            } else {
                times.push(t);
                free.push(cur + c as i64);
            }
        }
        Profile { times, free }
    }

    /// A profile with constant capacity (mostly for tests).
    pub fn flat(now: SimTime, free: u32) -> Profile {
        Profile {
            times: vec![now],
            free: vec![free as i64],
        }
    }

    pub fn now(&self) -> SimTime {
        self.times[0]
    }

    /// Index of the segment holding `t` (clamped to the profile's domain).
    /// O(1) at or before the origin — where every pass query is asked, since
    /// the pass profile is advanced to `now` — and a binary search otherwise.
    fn segment_of(&self, t: SimTime) -> usize {
        if t <= self.times[0] {
            return 0;
        }
        match self.times.binary_search(&t) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Free nodes at instant `t` (clamped to the profile's domain).
    pub fn free_at(&self, t: SimTime) -> i64 {
        self.free[self.segment_of(t)]
    }

    /// Minimum free nodes over `[start, start + duration)`.
    pub fn min_free_in(&self, start: SimTime, duration: u64) -> i64 {
        let end = start.after(duration.max(1));
        let mut idx = self.segment_of(start);
        let mut min = self.free[idx];
        idx += 1;
        while idx < self.times.len() && self.times[idx] < end {
            min = min.min(self.free[idx]);
            idx += 1;
        }
        min
    }

    /// Earliest instant ≥ `after` at which `nodes` stay free for
    /// `duration` seconds (`SimTime::MAX` if never): the start of
    /// `Profile::earliest_slot`.
    pub fn earliest_start(&self, nodes: u32, duration: u64, after: SimTime) -> SimTime {
        self.earliest_slot(nodes, duration, after).start
    }

    /// [`Profile::earliest_start`] plus the indices its sweep walked to, so
    /// [`Profile::reserve_slot`] can splice the window without searching.
    ///
    /// Single forward sweep over the step points (`O(len)`): a candidate
    /// start (`after` or a later step point) is carried along and abandoned
    /// as soon as a low-capacity segment intersects its window; the next
    /// viable step point becomes the new candidate. Equivalent to probing
    /// every candidate with [`Profile::min_free_in`] (the quadratic
    /// `earliest_start_legacy`, kept below as a test-only oracle).
    pub(crate) fn earliest_slot(&self, nodes: u32, duration: u64, after: SimTime) -> Slot {
        let _t = timing::scope(Probe::EarliestStart);
        let need = nodes as i64;
        let dur = duration.max(1);
        let times = &self.times[..];
        let free = &self.free[..times.len()];
        let n = times.len();
        let init = self.segment_of(after);
        let mut i = init;
        'candidates: loop {
            // Phase A: find the next viable segment — its step point (or
            // `after` itself for the initial segment) is the candidate.
            while free[i] < need {
                i += 1;
                if i >= n {
                    // Ran out of steps without a viable candidate: the job
                    // never fits (bigger than the machine).
                    return Slot {
                        start: SimTime::MAX,
                        seg: n - 1,
                        end: n,
                    };
                }
            }
            let cand = if i == init { after } else { times[i] };
            let close = cand.after(dur);
            // Phase B: capacity must hold until the window closes.
            let mut j = i + 1;
            loop {
                if j >= n || times[j] >= close {
                    // A window closing at or before the origin (`after`
                    // earlier than it) ends before step 0, not after it.
                    let end = if close <= times[0] { 0 } else { j };
                    return Slot {
                        start: cand,
                        seg: i,
                        end,
                    };
                }
                if free[j] < need {
                    // The blocking segment invalidates every candidate up to
                    // its step point; restart the search from it.
                    i = j;
                    continue 'candidates;
                }
                j += 1;
            }
        }
    }

    /// Whether `nodes` stay free for `duration` seconds starting *now* —
    /// exactly `earliest_start(nodes, duration, now) == now`, but with an
    /// early exit at the first blocking segment. Most queued jobs in a
    /// congested system are blocked immediately, so this probe is O(1) in
    /// the common case while a full `earliest_start` walks the profile to
    /// find *when* the job would fit.
    pub fn can_start_now(&self, nodes: u32, duration: u64, now: SimTime) -> bool {
        let need = nodes as i64;
        let dur = duration.max(1);
        let mut i = self.segment_of(now);
        if self.free[i] < need {
            return false;
        }
        let close = now.after(dur);
        i += 1;
        while i < self.times.len() && self.times[i] < close {
            if self.free[i] < need {
                return false;
            }
            i += 1;
        }
        true
    }

    /// The candidate-probing `earliest_start` (`O(len²)` worst case): the
    /// oracle for the equivalence property test below.
    #[cfg(test)]
    fn earliest_start_legacy(&self, nodes: u32, duration: u64, after: SimTime) -> SimTime {
        let need = nodes as i64;
        // Candidate instants: `after` itself and every later step point.
        let first_idx = match self.times.binary_search(&after) {
            Ok(i) => i,
            Err(i) => i,
        };
        if self.min_free_in(after, duration) >= need {
            return after;
        }
        for i in first_idx..self.times.len() {
            let t = self.times[i];
            if t <= after {
                continue;
            }
            if self.free[i] >= need && self.min_free_in(t, duration) >= need {
                return t;
            }
        }
        // After the last step everything is released; if still insufficient
        // the job can never run (bigger than the machine) — `SimTime::MAX`.
        let last_t = *self.times.last().unwrap();
        if *self.free.last().unwrap() >= need {
            last_t.max(after)
        } else {
            SimTime::MAX
        }
    }

    /// Subtracts `nodes` over `[start, start + duration)` (a reservation or
    /// an actual start), locating both window boundaries by binary search.
    pub fn reserve(&mut self, start: SimTime, duration: u64, nodes: u32) {
        let end = start.after(duration.max(1));
        let t0 = self.times[0];
        // Instants at/before the domain start are clamped to step 0.
        let s = if start <= t0 {
            (false, 0)
        } else {
            boundary(self.times.binary_search(&start))
        };
        let e = if end == SimTime::MAX {
            (false, usize::MAX)
        } else if end <= t0 {
            (false, 0)
        } else {
            boundary(self.times.binary_search(&end))
        };
        self.splice_and_add(start, end, s, e, -i64::from(nodes));
    }

    /// [`Profile::reserve`] of the window [`Profile::earliest_slot`] found,
    /// spliced at `slot.seg` / `slot.end` without searching. The slot must
    /// come from this profile as it is now: a profile changed since the
    /// sweep is a caller bug, refused with a panic rather than re-searched.
    pub(crate) fn reserve_slot(&mut self, slot: Slot, duration: u64, nodes: u32) {
        let Slot {
            start,
            seg,
            end: e_idx,
        } = slot;
        let end = start.after(duration.max(1));
        let (times, n) = (&self.times, self.times.len());
        assert!(
            seg < n
                && e_idx <= n
                && (seg == 0 || times[seg] <= start)
                && (seg + 1 == n || start < times[seg + 1])
                && (e_idx == 0 || times[e_idx - 1] < end)
                && (e_idx == n || end <= times[e_idx]),
            "stale slot {slot:?} for a {duration} s window on a {n}-step profile"
        );
        let ins_start = start > times[seg];
        let e = if end == SimTime::MAX {
            (false, usize::MAX)
        } else {
            (e_idx > 0 && (e_idx == n || times[e_idx] != end), e_idx)
        };
        self.splice_and_add(start, end, (ins_start, seg + ins_start as usize), e, -i64::from(nodes));
    }

    /// Adds `delta` over `[start, end)`, given where each boundary
    /// sits in the current arrays — `(insert a step, index)`, the index
    /// being `binary_search`'s, or `usize::MAX` for an end at `SimTime::MAX`.
    ///
    /// Hot path: both split points are spliced in with a single tail shift
    /// per vector (instead of two independent `Vec::insert` memmoves), then
    /// the add touches only the window's segments.
    fn splice_and_add(
        &mut self,
        start: SimTime,
        end: SimTime,
        (ins_start, s_idx): (bool, usize),
        (ins_end, e_idx): (bool, usize),
        delta: i64,
    ) {
        // Materialise the splits — at most one tail shift per vector — and
        // derive the final half-open window of indices to subtract over.
        let window = match (ins_start, ins_end) {
            (true, true) => {
                let (i1, i2) = (s_idx, e_idx);
                debug_assert!(1 <= i1 && i1 <= i2);
                let old = self.times.len();
                // Each new step inherits the level of the segment it splits.
                let v1 = self.free[i1 - 1];
                let v2 = self.free[i2 - 1];
                // Grow by two, then shift each region exactly once:
                // [i2..old) moves by 2, [i1..i2) moves by 1.
                self.times.resize(old + 2, SimTime::ZERO);
                self.free.resize(old + 2, 0);
                self.times.copy_within(i2..old, i2 + 2);
                self.free.copy_within(i2..old, i2 + 2);
                self.times.copy_within(i1..i2, i1 + 1);
                self.free.copy_within(i1..i2, i1 + 1);
                self.times[i1] = start;
                self.free[i1] = v1;
                self.times[i2 + 1] = end;
                self.free[i2 + 1] = v2;
                i1..i2 + 1
            }
            (true, false) => {
                self.times.insert(s_idx, start);
                self.free.insert(s_idx, self.free[s_idx - 1]);
                let upper = if e_idx == usize::MAX {
                    self.times.len()
                } else {
                    e_idx + 1 // shifted by the start insert (end > start)
                };
                s_idx..upper
            }
            (false, true) => {
                self.times.insert(e_idx, end);
                self.free.insert(e_idx, self.free[e_idx - 1]);
                s_idx..e_idx
            }
            (false, false) => s_idx..e_idx.min(self.times.len()),
        };
        for f in &mut self.free[window] {
            *f += delta;
        }
    }

    // ------------------------------------------------------------------
    // Incremental maintenance (the cached availability profile)
    // ------------------------------------------------------------------

    /// Moves the profile's origin forward to `now` without any state change:
    /// leading steps collapse, and releases whose instant has passed while
    /// the node is still busy become *overdue* — shown at `now + 1`, exactly
    /// as a fresh [`Profile::build`] at `now` would show them.
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.times[0] {
            return;
        }
        let k = self.times.partition_point(|&t| t <= now);
        // Free *now* is unchanged (nothing happened, time only passed);
        // everything the collapsed steps promised is overdue. The `k`
        // collapsed steps become `now` and, unless a step is already
        // there, `now + 1`: one splice per vector.
        let (base, overdue) = (self.free[0], self.free[k - 1]);
        let bump = now.after(1);
        if overdue > base && self.times.get(k) != Some(&bump) {
            self.times.splice(..k, [now, bump]);
            self.free.splice(..k, [base, overdue]);
        } else {
            self.times.splice(..k, [now]);
            self.free.splice(..k, [base]);
        }
    }

    /// Applies one node's predicted-release change (`old` → `new`, `None` =
    /// the node is empty) as a delta, keeping the profile exactly equal to a
    /// fresh [`Profile::build`] against the updated release map. The caller
    /// must pass the current instant; the profile is advanced to it first.
    pub fn patch_release(&mut self, now: SimTime, old: Option<SimTime>, new: Option<SimTime>) {
        self.patch_release_many(now, old, new, 1);
    }

    /// [`Profile::patch_release`] for `count` nodes making the *same*
    /// transition at once: one patch per job start or end, not per node.
    /// The nodes stop counting as free at `lose` (`now` when they were
    /// empty, their release otherwise) and count again at `gain`, so the
    /// profile moves over `[min(lose, gain), max(lose, gain))` only.
    /// Returns whether the steps changed (two overdue instants show alike).
    pub(crate) fn patch_release_many(
        &mut self,
        now: SimTime,
        old: Option<SimTime>,
        new: Option<SimTime>,
        count: u32,
    ) -> bool {
        self.advance_to(now);
        // An overdue release shows at `now + 1`, as `Profile::build` has it.
        let shown = |w: Option<SimTime>| w.map_or(now, |w| w.max(now.after(1)));
        let (lose, gain, count) = (shown(old), shown(new), i64::from(count));
        match lose.cmp(&gain) {
            std::cmp::Ordering::Less => self.add_between(lose, gain, -count),
            std::cmp::Ordering::Greater => self.add_between(gain, lose, count),
            std::cmp::Ordering::Equal => return false,
        }
        true
    }

    /// Whether advancing to `now` collapses a step other than the origin.
    fn crossed_by(&self, now: SimTime) -> bool {
        self.times.get(1).is_some_and(|&t| t <= now)
    }

    /// Adds `delta` free nodes over `[a, b)`, `times[0] <= a < b`, keeping
    /// the profile canonical (no two adjacent steps equal, as
    /// [`Profile::build`] leaves it): every step inside the range moves by
    /// the same `delta`, so only the two boundaries can change shape. A
    /// boundary with no step is split in; a boundary step the add levels
    /// with the one before it is merged away.
    fn add_between(&mut self, a: SimTime, b: SimTime, delta: i64) {
        let (split_a, ia) = boundary(self.times.binary_search(&a));
        let (split_b, ib) = boundary(self.times.binary_search(&b));
        self.splice_and_add(a, b, (split_a, ia), (split_b, ib), delta);
        // `b`'s step first (shifted by a split at `a`), so `ia` still holds.
        for (split, i) in [(split_b, ib + usize::from(split_a)), (split_a, ia)] {
            if !split && i > 0 && self.free[i] == self.free[i - 1] {
                self.times.remove(i);
                self.free.remove(i);
            }
        }
    }

    /// Removes redundant step points (equal adjacent values), leaving the
    /// canonical form [`Profile::build`] gives. Reservations can leave such
    /// points, so the `self_check` oracle compares pass profiles compacted.
    pub(crate) fn compact(&mut self) {
        let mut w = 1;
        for r in 1..self.times.len() {
            if self.free[r] != self.free[w - 1] {
                self.times[w] = self.times[r];
                self.free[w] = self.free[r];
                w += 1;
            }
        }
        self.times.truncate(w);
        self.free.truncate(w);
    }

    /// Number of step points (size/perf diagnostics).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// True if the profile never goes negative (no oversubscription by
    /// reservations) — a property the conservative scheduler must maintain.
    pub fn is_consistent(&self) -> bool {
        self.free.iter().all(|&f| f >= 0)
    }
}

/// The cached availability: [`Profile::build`] of the node table's
/// releases, kept by patching at every release change instead of
/// rebuilding, and versioned. Every patch that changes a step and every
/// advance that collapses one moves the profile to a fresh version, with
/// one exception: a patch that exactly undoes the one before it, with no
/// advance across a step between them and both its instants still ahead
/// of `now`, returns to the version before that one — a borrower that
/// moved onto idle nodes and ended early leaves the profile as it found
/// it. So two reads at equal versions hold the same steps beyond the
/// origin: only `times[0]` can differ, and it moved short of `times[1]`.
#[derive(Debug, Clone)]
pub(crate) struct Availability {
    profile: Profile,
    /// The version the profile is at.
    version: u64,
    /// The last version handed out; a new one is always fresh.
    issued: u64,
    /// The last patch, while no advance crossed a step since it.
    undo: Undo,
}

/// A patch as `(old, new)` release keys (`u64::MAX` for an empty node)
/// and its node count — 0 when there is none to undo — with the version
/// before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Undo {
    old: u64,
    new: u64,
    count: u32,
    back_to: u64,
}

impl Availability {
    pub(crate) fn new(profile: Profile) -> Availability {
        Availability { profile, version: 0, issued: 0, undo: Undo::default() }
    }

    /// Moves to a version never used before.
    fn fresh(&mut self) {
        self.issued += 1;
        self.version = self.issued;
    }

    /// Advances to `now`; a collapsed step is a fresh version and leaves
    /// nothing to undo.
    fn advance(&mut self, now: SimTime) {
        if self.profile.crossed_by(now) {
            self.fresh();
            self.undo = Undo::default();
        }
        self.profile.advance_to(now);
    }

    /// The profile advanced to `now`.
    #[inline]
    pub(crate) fn at(&mut self, now: SimTime) -> &Profile {
        self.advance(now);
        &self.profile
    }

    /// The profile as last advanced or patched (its origin may lag `now`).
    pub(crate) fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The version: see the type's docs.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// [`Profile::patch_release_many`], advancing to `now` first.
    pub(crate) fn patch(
        &mut self,
        now: SimTime,
        old: Option<SimTime>,
        new: Option<SimTime>,
        count: u32,
    ) {
        self.advance(now);
        if !self.profile.patch_release_many(now, old, new, count) {
            return;
        }
        // Instants ahead of `now` show where they are, as they did when the
        // patch being undone was made (an overdue one shows at `now + 1`).
        let ahead = old.is_none_or(|w| w > now) && new.is_none_or(|w| w > now);
        let key = |w: Option<SimTime>| w.map_or(u64::MAX, SimTime::secs);
        let (old, new) = (key(old), key(new));
        let last = self.undo;
        if ahead && (last.old, last.new, last.count) == (new, old, count) {
            self.version = last.back_to;
            self.undo = Undo::default();
        } else {
            self.undo = Undo { old, new, count, back_to: self.version };
            self.fresh();
        }
    }

    /// The latest predicted release as the profile shows it — an overdue
    /// one at `now + 1` — or `None` when every node is empty: the profile's
    /// last step beyond its origin, since every step is a release.
    pub(crate) fn last_release(&self, now: SimTime) -> Option<SimTime> {
        let times = &self.profile.times;
        (times.len() > 1).then(|| times[times.len() - 1].max(now.after(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map with `nodes` more nodes releasing at each instant.
    fn tally(releases: &[(u64, u32)]) -> ReleaseMap {
        let mut rm = ReleaseMap::default();
        for &(t, nodes) in releases {
            rm.retally(None, Some(SimTime(t)), nodes);
        }
        rm
    }

    #[test]
    fn availability_versions_move_with_the_steps_and_come_back_on_an_undo() {
        let t = |s| Some(SimTime(s));
        let fresh = || Availability::new(Profile::build(SimTime(0), 4, &tally(&[(100, 2)])));
        let mut avail = fresh();
        let v0 = avail.version();
        // A patch and its exact inverse, both instants ahead of `now`: the
        // profile and the version are back.
        let mut before = avail.at(SimTime(10)).clone();
        avail.patch(SimTime(10), None, t(400), 1);
        let v1 = avail.version();
        assert_ne!(v1, v0);
        avail.patch(SimTime(20), t(400), None, 1);
        assert_eq!(avail.version(), v0);
        before.advance_to(SimTime(20));
        assert_eq!(avail.profile(), &before);
        // A version undone is never handed out again.
        avail.patch(SimTime(20), None, t(500), 1);
        let v2 = avail.version();
        assert!(![v0, v1].contains(&v2));
        // An advance that collapses a step moves the version and leaves
        // nothing to undo.
        avail.at(SimTime(150));
        let v3 = avail.version();
        assert!(![v0, v1, v2].contains(&v3));
        avail.patch(SimTime(150), t(500), None, 1);
        assert!(![v0, v1, v2, v3].contains(&avail.version()));
        // Two overdue instants show alike at `now + 1`: nothing moved.
        let v4 = avail.version();
        avail.patch(SimTime(150), t(100), t(120), 2);
        assert_eq!(avail.version(), v4);
        // No undo of an inverse whose instant is overdue by then: the nodes
        // moved 100 → 300 (the step at 100 went with them) and come back
        // at 150, where 100 shows at 151.
        let mut avail = fresh();
        avail.patch(SimTime(10), t(100), t(300), 2);
        let v1 = avail.version();
        avail.patch(SimTime(150), t(300), t(100), 2);
        assert!(![v0, v1].contains(&avail.version()));
        assert_eq!(avail.profile(), &Profile::build(SimTime(150), 4, &tally(&[(100, 2)])));
    }

    #[test]
    fn release_map_counts_nodes() {
        let rm = tally(&[(100, 1), (100, 1), (50, 1)]);
        assert_eq!(rm.last(), Some(SimTime(100)));
        let ups: Vec<_> = rm.upcoming(SimTime(0)).collect();
        assert_eq!(ups, vec![(SimTime(50), 1), (SimTime(100), 2)]);
    }

    #[test]
    fn release_map_update_moves_node() {
        let mut rm = tally(&[(100, 2)]);
        rm.retally(Some(SimTime(100)), Some(SimTime(200)), 1);
        assert_eq!(
            rm.upcoming(SimTime(0)).collect::<Vec<_>>(),
            vec![(SimTime(100), 1), (SimTime(200), 1)]
        );
        rm.retally(Some(SimTime(100)), None, 1);
        rm.retally(Some(SimTime(200)), None, 1);
        assert_eq!((rm.last(), rm), (None, ReleaseMap::default()), "no empty counts left");
    }

    #[test]
    fn batched_release_updates_equal_one_by_one() {
        let t = |s| Some(SimTime(s));
        let mut one = tally(&[(100, 2), (50, 2)]);
        let mut batch = one.clone();
        // Two nodes 100 → 200, one 50 → 200, one 50 → idle, one unchanged
        // (idle), one idle → 200: four distinct transitions.
        let updates = [(t(100), t(200)), (t(100), t(200)), (t(50), t(200)), (t(50), None), (None, None), (None, t(200))];
        for &(old, new) in &updates {
            one.retally(old, new, u32::from(old != new));
        }
        let mut moved = Vec::new();
        group_release_moves(updates, |old, new, nodes| {
            batch.retally(old, new, nodes);
            moved.push((old, new, nodes));
        });
        assert_eq!(
            moved,
            vec![(t(100), t(200), 2), (t(50), t(200), 1), (t(50), None, 1), (None, t(200), 1)]
        );
        assert_eq!(batch, one);
        assert_eq!(batch.upcoming(SimTime(0)).collect::<Vec<_>>(), vec![(SimTime(200), 4)]);
    }

    #[test]
    fn overdue_nodes_counted() {
        let rm = tally(&[(10, 1), (50, 1)]);
        assert_eq!(rm.overdue(SimTime(20)), 1);
        assert_eq!(rm.upcoming(SimTime(20)).count(), 1);
    }

    #[test]
    fn profile_build_steps_up_at_releases() {
        let rm = tally(&[(100, 2), (300, 1)]);
        let p = Profile::build(SimTime(0), 5, &rm);
        assert_eq!(p.free_at(SimTime(0)), 5);
        assert_eq!(p.free_at(SimTime(99)), 5);
        assert_eq!(p.free_at(SimTime(100)), 7);
        assert_eq!(p.free_at(SimTime(300)), 8);
    }

    #[test]
    fn earliest_start_now_when_room() {
        let p = Profile::flat(SimTime(10), 4);
        assert_eq!(p.earliest_start(4, 100, SimTime(10)), SimTime(10));
        assert_eq!(p.earliest_start(5, 100, SimTime(10)), SimTime::MAX);
    }

    #[test]
    fn earliest_start_waits_for_release() {
        let rm = tally(&[(500, 2)]);
        let p = Profile::build(SimTime(0), 2, &rm);
        assert_eq!(p.earliest_start(2, 100, SimTime(0)), SimTime(0));
        assert_eq!(p.earliest_start(3, 100, SimTime(0)), SimTime(500));
    }

    #[test]
    fn reservation_blocks_window() {
        let mut p = Profile::flat(SimTime(0), 4);
        p.reserve(SimTime(100), 200, 3);
        assert_eq!(p.free_at(SimTime(50)), 4);
        assert_eq!(p.free_at(SimTime(100)), 1);
        assert_eq!(p.free_at(SimTime(299)), 1);
        assert_eq!(p.free_at(SimTime(300)), 4);
        assert!(p.is_consistent());
        // A 2-node job of 100 s must now wait until the reservation ends.
        assert_eq!(p.earliest_start(2, 100, SimTime(60)), SimTime(300));
        // …but fits before it if short enough.
        assert_eq!(p.earliest_start(2, 40, SimTime(60)), SimTime(60));
    }

    #[test]
    fn min_free_in_spans_steps() {
        let mut p = Profile::flat(SimTime(0), 10);
        p.reserve(SimTime(50), 50, 6);
        assert_eq!(p.min_free_in(SimTime(0), 200), 4);
        assert_eq!(p.min_free_in(SimTime(0), 50), 10);
        assert_eq!(p.min_free_in(SimTime(100), 10), 10);
    }

    #[test]
    fn chained_reservations_compose() {
        let mut p = Profile::flat(SimTime(0), 4);
        // Head job reserves everything at t=0 for 100s.
        p.reserve(SimTime(0), 100, 4);
        // Next job's earliest start is 100.
        let t = p.earliest_start(2, 50, SimTime(0));
        assert_eq!(t, SimTime(100));
        p.reserve(t, 50, 2);
        // A 2-node job can still run alongside it.
        assert_eq!(p.earliest_start(2, 50, SimTime(0)), SimTime(100));
        // But a 3-node job waits for it to finish.
        assert_eq!(p.earliest_start(3, 50, SimTime(0)), SimTime(150));
        assert!(p.is_consistent());
    }

    #[test]
    fn overdue_release_modelled_imminent() {
        let p = Profile::build(SimTime(100), 1, &tally(&[(10, 1)]));
        assert_eq!(p.free_at(SimTime(100)), 1);
        assert_eq!(p.free_at(SimTime(101)), 2);
    }

    #[test]
    fn profile_build_merges_simultaneous_releases() {
        let p = Profile::build(SimTime(0), 1, &tally(&[(100, 1), (100, 2)]));
        assert_eq!(p.len(), 2);
        assert_eq!(p.free_at(SimTime(100)), 4);
    }

    #[test]
    #[should_panic(expected = "stale slot")]
    fn slot_taken_before_an_intervening_reserve_is_refused() {
        let mut p = Profile::flat(SimTime(0), 4);
        p.reserve(SimTime(0), 100, 4);
        let slot = p.earliest_slot(2, 50, SimTime(0));
        assert_eq!((slot.start, slot.seg, slot.end), (SimTime(100), 1, 2));
        // A search would still place the job at 100; the slot's `end` now
        // points at the new step at 120, so it is refused instead.
        p.reserve(SimTime(120), 10, 1);
        p.reserve_slot(slot, 50, 2);
    }

    /// The segment `binary_search` maps `t` to: what `segment_of` must return.
    fn searched_segment(p: &Profile, t: SimTime) -> usize {
        match p.times.binary_search(&t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    proptest::proptest! {
        /// A chain of jobs reserved through `earliest_slot` + `reserve_slot`
        /// leaves arrays identical — not merely equal after compaction:
        /// `peak_profile_len` reads them — to the same chain reserved
        /// through `earliest_start` + `reserve`. Releases sit on a 10 s grid
        /// so windows often end exactly on a step; `after` is drawn before
        /// the origin, at it, on a step, anywhere (mostly mid-segment) and
        /// past the last step; windows end on the next step, on the grid,
        /// past the last step and at `SimTime::MAX`.
        #[test]
        fn slot_reservations_equal_searched_reservations(
            releases in proptest::collection::vec((1u64..80, 1u32..4), 0..16),
            resvs in proptest::collection::vec((0u64..900, 1u64..300, 1u32..5), 0..10),
            free_now in 0u32..8,
            chain in proptest::collection::vec((1u32..10, 0u8..5, 0u8..5, 0u64..1000), 1..=40),
        ) {
            const ORIGIN: u64 = 100;
            let shifted: Vec<(u64, u32)> = releases.iter().map(|&(t, c)| (ORIGIN + 10 * t, c)).collect();
            let rm = tally(&shifted);
            let mut searched = Profile::build(SimTime(ORIGIN), free_now, &rm);
            for &(s, d, n) in &resvs {
                searched.reserve(SimTime(s), d, n);
            }
            let mut slotted = searched.clone();
            for &(nodes, after_kind, dur_kind, raw) in &chain {
                let times = &searched.times;
                let last = *times.last().unwrap();
                let after = match after_kind {
                    0 => SimTime(raw % ORIGIN),
                    1 => SimTime(ORIGIN),
                    2 => times[raw as usize % times.len()],
                    3 => SimTime(ORIGIN + raw),
                    _ => last.after(1 + raw),
                };
                let duration = match dur_kind {
                    0 => match times.iter().find(|&&t| t > after) {
                        Some(&t) => t.since(after),
                        None => 1 + raw,
                    },
                    1 => 10 * (1 + raw % 60),
                    2 => 1 + raw % 600,
                    3 => last.since(after) + 1 + raw % 50,
                    _ => u64::MAX,
                };
                let slot = slotted.earliest_slot(nodes, duration, after);
                let est = searched.earliest_start(nodes, duration, after);
                proptest::prop_assert_eq!(slot.start, est, "on {:?}", searched);
                if est == SimTime::MAX {
                    continue;
                }
                let close = est.after(duration.max(1));
                for t in [after, est, close] {
                    proptest::prop_assert_eq!(slotted.segment_of(t), searched_segment(&slotted, t));
                }
                proptest::prop_assert_eq!(slot.seg, searched_segment(&slotted, est));
                proptest::prop_assert_eq!(slot.end, slotted.times.partition_point(|&t| t < close));
                searched.reserve(est, duration, nodes);
                slotted.reserve_slot(slot, duration, nodes);
                proptest::prop_assert_eq!(
                    &slotted, &searched,
                    "({} nodes, {} s, after {:?}) landed elsewhere", nodes, duration, after
                );
            }
        }


        /// One `patch_release_many` of `k` nodes equals `k` single-node
        /// `patch_release` calls, and both equal `Profile::build` on the
        /// moved tally, under arbitrary moves of `k` nodes that share a
        /// release: from idle or from an instant already in the tally
        /// (overdue ones included), to idle, to a step already there, to
        /// an instant at or before `now` (shown at `now + 1`), to `now + 1`
        /// itself, or to a later instant — so `Some → Some` runs both ways.
        #[test]
        fn patch_many_equals_single_patches_and_rebuild(
            moves in proptest::collection::vec(
                (0usize..1000, 0u32..1000, 0u8..6, 0u64..400, 0u64..40),
                1..60,
            ),
        ) {
            const NODES: u32 = 24;
            let (mut rm, mut idle, mut now) = (ReleaseMap::default(), NODES, SimTime(50));
            let mut cached = Profile::flat(now, NODES);
            for &(pick, k_raw, to, raw, dt) in &moves {
                now = now.after(dt);
                let mut from: Vec<(Option<SimTime>, u32)> = vec![(None, idle)];
                from.extend(rm.counts.iter().map(|(&t, &c)| (Some(t), c)));
                from.retain(|&(_, c)| c > 0);
                let (old, have) = from[pick % from.len()];
                let k = 1 + k_raw % have;
                let keys: Vec<SimTime> = rm.counts.keys().copied().collect();
                let new = match to {
                    0 => None,
                    1 if !keys.is_empty() => Some(keys[raw as usize % keys.len()]),
                    2 => Some(SimTime(now.secs() - raw % now.secs())),
                    3 => Some(now.after(1)),
                    _ => Some(now.after(1 + raw)),
                };
                let mut many = cached.clone();
                many.patch_release_many(now, old, new, k);
                let mut single = cached.clone();
                for _ in 0..k {
                    single.patch_release(now, old, new);
                }
                rm.retally(old, new, k);
                idle = idle + if new.is_none() { k } else { 0 } - if old.is_none() { k } else { 0 };
                let built = Profile::build(now, idle, &rm);
                proptest::prop_assert_eq!(&many, &built, "{} nodes {:?} -> {:?} at {:?}", k, old, new, now);
                proptest::prop_assert_eq!(&single, &built);
                cached = many;
            }
        }


        /// The O(len) forward-sweep `earliest_start` returns exactly what
        /// the candidate-probing implementation returns, on profiles with
        /// arbitrary releases *and* reservations (dips included), and
        /// `can_start_now` — which decides every static start — is exactly
        /// `earliest_start == after`. The oracle lives here as
        /// `#[cfg(test)]` so it can never creep onto the hot path.
        #[test]
        fn linear_earliest_start_matches_legacy_oracle(
            releases in proptest::collection::vec((1u64..800, 1u32..4), 0..16),
            resvs in proptest::collection::vec((0u64..700, 1u64..300, 1u32..5), 0..10),
            free_now in 0u32..8,
            nodes in 1u32..10,
            duration in 1u64..600,
            after in 0u64..900,
        ) {
            let rm = tally(&releases);
            let mut p = Profile::build(SimTime(0), free_now, &rm);
            for &(s, d, n) in &resvs {
                p.reserve(SimTime(s), d, n);
            }
            proptest::prop_assert_eq!(
                p.earliest_start(nodes, duration, SimTime(after)),
                p.earliest_start_legacy(nodes, duration, SimTime(after)),
                "sweep and probe disagree on {:?}", p
            );
            proptest::prop_assert_eq!(
                p.can_start_now(nodes, duration, SimTime(after)),
                p.earliest_start(nodes, duration, SimTime(after)) == SimTime(after),
                "the start-now probe and the sweep disagree on {:?}", p
            );
        }
    }
}
