"""Rank-space super-stepping for deterministic lockstep runs.

When the step is a pure function of the configuration — deterministic
tables (every neighborhood ≤ 1 action, every action 1 outcome) under the
synchronous daemon, or the central daemon on runs where every reachable
state has ≤ 1 enabled process — a lockstep run needs no randomness and
can advance in *rank space*: configurations are interned to dense ids
over their mixed-radix ranks, a successor array ``succ`` and
legitimate/terminal event bitmaps are compiled over the trial-reachable
closure (bounded by :data:`SUPERSTEP_BUDGET` states and the largest row
budget in depth; over budget declines to the per-step body), and trials
jump via pointer-doubling composition ``succ_{2k} = succ_k[succ_k]``.
Exact first-hit times come from the binary-lifting descent: a jump of
size ``2^j`` is taken only when the reach bitmap proves no event occurs
within the window, which bisects the last jump down to the exact step of
the first legitimate/terminal hit — recorded outcome vectors stay
bit-identical to the per-step body of
:meth:`repro.markov.batch.BatchEngine.lockstep`, which decides
eligibility at its entry.

The per-step body draws scheduler and outcome uniforms every step even
on deterministic tables; a super-stepped run draws none, so it leaves
the caller's generator untouched.  Results are bit-identical, generator
state is not.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import CompiledKernelTables, expansion_context

__all__ = ["SUPERSTEP_BUDGET", "SuperstepPlan"]

#: Maximum interned states of a super-stepping plan before it declines
#: to the per-step body.  Sized so a 10⁵-trial deterministic ring-30
#: block (≈ 6 × 10⁶ reachable states) compiles while pathological spaces
#: abort before exhausting memory.  Read at plan time, so a test can
#: set it to 0 to force the per-step body.
SUPERSTEP_BUDGET = 8_000_000

# Pointer-doubling ladder height: top jumps cover 2^(levels-1) steps.
_MAX_LADDER_LEVELS = 7


class _RankInterner:
    """Vectorized open-addressing set interning int64 ranks to dense ids.

    Insertion-ordered: ids are assigned in first-seen order and the
    id → rank log is kept as chunks (one per insertion round) so the
    super-stepping planner can walk its BFS frontier without re-hashing.
    Ranks are non-negative, so ``-1`` is a free empty-slot sentinel; the
    table never deletes, which keeps linear-probe chains valid forever.
    """

    __slots__ = ("_capacity", "_mask", "_keys", "_values", "chunks", "count")

    def __init__(self, capacity: int = 1 << 16) -> None:
        self._capacity = capacity
        self._mask = capacity - 1
        self._keys = np.full(capacity, -1, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self.chunks: list[np.ndarray] = []
        self.count = 0

    def _home_slots(self, ranks: np.ndarray) -> np.ndarray:
        # splitmix64-style scramble; uint64 arithmetic wraps silently.
        mixed = ranks.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        return (mixed & np.uint64(self._mask)).astype(np.int64)

    def intern(self, ranks: np.ndarray) -> np.ndarray:
        """Ids of ``ranks`` (aligned), assigning fresh ids to new ranks."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if not ranks.size:
            return np.empty(0, dtype=np.int64)
        unique, inverse = np.unique(ranks, return_inverse=True)
        while (self.count + unique.size) * 5 > self._capacity * 3:
            self._grow()
        keys, values = self._keys, self._values
        ids = np.empty(unique.size, dtype=np.int64)
        slots = self._home_slots(unique)
        pending = np.arange(unique.size)
        fresh_ranks: list[np.ndarray] = []
        while pending.size:
            probe = slots[pending]
            found = keys[probe]
            hit = found == unique[pending]
            if hit.any():
                ids[pending[hit]] = values[probe[hit]]
            empty = found == -1
            if empty.any():
                # Claim empty slots by write-then-verify: colliding rows
                # targeting one slot race, the surviving write wins and
                # the losers keep probing.
                claimers = pending[empty]
                cslots = probe[empty]
                keys[cslots] = unique[claimers]
                won = keys[cslots] == unique[claimers]
                winners = claimers[won]
                new_ids = self.count + np.arange(
                    winners.size, dtype=np.int64
                )
                values[cslots[won]] = new_ids
                ids[winners] = new_ids
                fresh_ranks.append(unique[winners])
                self.count += winners.size
                miss = np.zeros(pending.size, dtype=bool)
                miss[empty] = ~won
                unresolved = miss
            else:
                unresolved = np.zeros(pending.size, dtype=bool)
            unresolved |= ~hit & (found != -1) & (found != unique[pending])
            pending = pending[unresolved]
            slots[pending] = (slots[pending] + 1) & self._mask
        for chunk in fresh_ranks:
            if chunk.size:
                self.chunks.append(chunk)
        return ids[inverse]

    def _grow(self) -> None:
        self._capacity *= 4
        self._mask = self._capacity - 1
        self._keys = np.full(self._capacity, -1, dtype=np.int64)
        self._values = np.zeros(self._capacity, dtype=np.int64)
        if not self.count:
            return
        all_ranks = np.concatenate(self.chunks)
        all_ids = np.arange(self.count, dtype=np.int64)
        keys, values = self._keys, self._values
        slots = self._home_slots(all_ranks)
        pending = np.arange(all_ranks.size)
        while pending.size:
            probe = slots[pending]
            keys[probe] = all_ranks[pending]
            won = keys[probe] == all_ranks[pending]
            values[probe[won]] = all_ids[pending[won]]
            pending = pending[~won]
            slots[pending] = (slots[pending] + 1) & self._mask


class SuperstepPlan:
    """Compiled rank-space successor structure of one deterministic run.

    ``succ[i]`` is the dense id of state ``i``'s unique successor over
    the trial-reachable closure, ``legit``/``event`` mark legitimate and
    legitimate-or-terminal states, and ``init_ids`` are the rows' start
    states.  Built per run (the closure depends on the initial codes and
    the largest row budget) and discarded afterwards.
    """

    __slots__ = ("succ", "event", "legit", "init_ids")

    def __init__(
        self,
        succ: np.ndarray,
        event: np.ndarray,
        legit: np.ndarray,
        init_ids: np.ndarray,
    ) -> None:
        self.succ = succ
        self.event = event
        self.legit = legit
        self.init_ids = init_ids

    @classmethod
    def build(
        cls,
        tables: CompiledKernelTables,
        codes: np.ndarray,
        budget: np.ndarray,
        legit_count: int,
        central: bool,
    ) -> "SuperstepPlan | None":
        """Compile the closure of ``codes`` within the largest of the
        rows' ``budget``, or ``None`` when the run is not a pure function
        of the configuration or the closure is over the state budget.

        The caller has already checked the strategy and legitimacy
        types: a synchronous or central daemon and the gather-free
        enabled-count legitimacy ``|Enabled(γ)| = legit_count``.  Here
        the tables must be deterministic with int64-safe ranks, and
        under the central daemon every explored state must have ≤ 1
        enabled process (checked during the BFS; a violation declines).
        """
        context = expansion_context(tables)
        if not (context.deterministic and context.int64_safe):
            return None
        max_steps = int(budget.max()) if budget.size else 0
        if max_steps <= 0:
            return None
        state_budget = SUPERSTEP_BUDGET

        init_ranks = codes.astype(np.int64) @ context.weights_row
        interner = _RankInterner()
        init_ids = interner.intern(init_ranks)
        if interner.count > state_budget:
            return None

        succ_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        chunk_cursor = 0
        processed = 0
        depth = 0
        while processed < interner.count:
            frontier = np.concatenate(interner.chunks[chunk_cursor:])
            chunk_cursor = len(interner.chunks)
            succ_ranks, counts = context.deterministic_successor_ranks(
                frontier
            )
            if central and counts.size and int(counts.max()) > 1:
                # The central daemon has a real choice here; the run is
                # not deterministic after all.
                return None
            count_chunks.append(counts)
            if depth >= max_steps:
                # Depth-capped tail: states first reached at the final
                # step can be *occupied* but never stepped from, so
                # their successors are irrelevant — self-loop them
                # instead of growing the closure further.
                succ_chunks.append(
                    np.arange(
                        processed,
                        processed + frontier.size,
                        dtype=np.int64,
                    )
                )
                processed += frontier.size
                break
            succ_ids = interner.intern(succ_ranks)
            if interner.count > state_budget:
                return None
            succ_chunks.append(succ_ids)
            processed += frontier.size
            depth += 1

        succ = np.concatenate(succ_chunks)
        counts_all = np.concatenate(count_chunks)
        legit = counts_all == legit_count
        event = legit | (counts_all == 0)
        if interner.count < 2**31:
            succ = succ.astype(np.int32)
        return cls(succ, event, legit, init_ids)

    def execute(self, budget: np.ndarray, result) -> None:
        """Jump every row to its exact first event or its own budget.

        Pointer-doubling ladder + binary-lifting descent.  The reach
        bitmap of level ``j`` answers "is there an event within the next
        ``2^j`` steps?", so taking a jump exactly when the answer is *no*
        bisects the last jump and lands each surviving row one step
        short of its first event — the final single step then hits it,
        making recorded times bit-identical to the per-step body.  Rows
        whose budget runs out first drain ``rem`` to zero through the
        same jumps and retire as timeouts.  ``result`` is the run's
        :class:`~repro.markov.batch.BatchRunResult`; its row-indexed
        outcome vectors are written in place.
        """
        succ0 = self.succ
        event = self.event
        legit = self.legit
        levels = min(
            _MAX_LADDER_LEVELS, max(int(budget.max()).bit_length(), 1)
        )
        succ_pows = [succ0]
        reach_pows = [event[succ0]]
        for _ in range(1, levels):
            succ_k = succ_pows[-1]
            reach_k = reach_pows[-1]
            succ_pows.append(succ_k[succ_k])
            reach_pows.append(reach_k | reach_k[succ_k])
        top = levels - 1
        top_jump = 1 << top
        succ_top = succ_pows[top]
        reach_top = reach_pows[top]
        reach_one = reach_pows[0]

        ids = np.arange(self.init_ids.size)
        cur = self.init_ids.copy()
        limit = budget.astype(np.int64, copy=True)
        t = np.zeros(cur.size, dtype=np.int64)
        while cur.size:
            ev = event[cur]
            if ev.any():
                conv = legit[cur]  # conv ⊆ ev, and legitimacy wins over
                term = ev & ~conv  # terminal, as in the per-step body
                converged_ids = ids[conv]
                result.times[converged_ids] = t[conv]
                result.converged[converged_ids] = True
                result.hit_terminal[ids[term]] = True
                keep = ~ev
                ids, cur, t, limit = ids[keep], cur[keep], t[keep], limit[keep]
                if not cur.size:
                    break
            over = t >= limit
            if over.any():
                result.timed_out[ids[over]] = True
                keep = ~over
                ids, cur, t, limit = ids[keep], cur[keep], t[keep], limit[keep]
                if not cur.size:
                    break
            rem = limit - t
            while True:
                jump = (rem >= top_jump) & ~reach_top[cur]
                if not jump.any():
                    break
                cur[jump] = succ_top[cur[jump]]
                t[jump] += top_jump
                rem[jump] -= top_jump
            for level in range(top - 1, -1, -1):
                size = 1 << level
                jump = (rem >= size) & ~reach_pows[level][cur]
                if jump.any():
                    cur[jump] = succ_pows[level][cur[jump]]
                    t[jump] += size
                    rem[jump] -= size
            final = (rem >= 1) & reach_one[cur]
            if final.any():
                cur[final] = succ0[cur[final]]
                t[final] += 1
