"""Dense integer state encoding — the fast path of the execution stack.

In the locally-shared-memory model (Section 2) a process's enabled
actions and post-states are a function of its own and its neighbors'
local states, so every neighborhood can be resolved once, ahead of
time, through :meth:`repro.core.system.System.resolve_neighborhood`.
This module interns every local state to a small integer *code* and
packs those resolutions into flat NumPy arrays.  A configuration becomes
a ``uint32`` vector, a Monte-Carlo batch a ``(trials × processes)`` code
matrix, and a simulation step a handful of integer gathers:

* :class:`StateEncoding` — the bijection ``local state ⟷ code`` per
  process (codes follow the deterministic domain-product order that
  :func:`repro.core.configuration.enumerate_configurations` uses);
* :func:`process_classes` — the classes of look-alike processes: two
  processes whose local views observe the same layouts, constants,
  degrees and ``my_index_at`` numbering run the anonymous program on
  identical inputs;
* :class:`CompiledKernelTables` / :func:`compile_tables` — every
  neighborhood of one member per process class resolved once through
  the system and packed into mixed-radix-indexed arrays: enabled bit,
  action count, and per-action outcome rows (cumulative probability for
  inverse-CDF sampling, raw probability for the exact chain builder,
  post-state code).  Class members share the block through their
  ``key_offset``, so a ring of identical processes compiles one block,
  not one per process;
* :func:`tables_for` / :data:`TABLE_CACHE` — the one process-wide cache
  in front of :func:`compile_tables`, keyed by system content
  (:func:`repro.store.columnar.system_cache_key`): exploration, chains,
  MDPs, parametric chains and Monte-Carlo all read one compilation per
  system, and forked workers inherit it.

Division of labor (see :mod:`repro.core`): ``System`` = semantics and
scalar oracle, compiled tables = speed.  Two engines build on these
tables: the lockstep Monte-Carlo batch engine
(:mod:`repro.markov.batch`) and the compiled chain builder
(:mod:`repro.markov.builder`), whose expander the state-space explorer
reads as a view — the arrays are read-only (``writeable=False``) from
compilation on, so one compiled table serves any number of concurrent
batches and consumers and ships to worker processes for free (one
pickle, or copy-on-write under ``fork``).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from repro.core.configuration import Configuration, LocalState
from repro.core.parametric import (
    MAX_COIN_PARAMETERS,
    affine_array_bounds,
    affine_terms,
    evaluate_affine_arrays,
)
from repro.core.system import System
from repro.errors import ModelError
from repro.lru import SignatureLRU
from repro.store.columnar import (
    canonical_constants,
    canonical_layout,
    system_cache_key,
)

__all__ = [
    "DEFAULT_TABLE_BUDGET",
    "StateEncoding",
    "CompiledKernelTables",
    "ExpansionContext",
    "TABLE_CACHE",
    "compile_tables",
    "expansion_context",
    "process_classes",
    "ranks_fit_int64",
    "tables_for",
]

#: Code dtype: local state spaces are tiny, 32 bits is generous.
CODE_DTYPE = np.uint32

#: Packed-key dtype: keys are gather indices into the class entries,
#: which :func:`compile_tables` keeps below :data:`_KEY_SPACE_LIMIT`.
KEY_DTYPE = np.uint32

#: Class entries must stay below this for every key to fit ``KEY_DTYPE``.
_KEY_SPACE_LIMIT = 2**32

#: Default cap on the class entries :func:`compile_tables` stores.
DEFAULT_TABLE_BUDGET = 1_000_000

#: Configuration spaces smaller than this rank in int64 arithmetic.
_RANK_SPACE_LIMIT = 2**62


def ranks_fit_int64(system: System) -> bool:
    """Whether ``system``'s configuration ranks fit int64 arithmetic.

    Known from the local-state counts alone, so the expander's callers
    ask before compiling tables they could not use
    (:attr:`ExpansionContext.int64_safe` says the same of a table set).
    """
    return system.num_configurations() < _RANK_SPACE_LIMIT


class StateEncoding:
    """Interning of per-process local states to dense integer codes.

    The bijection ``local state ⟷ code`` underpinning every array-based
    tier: built from a :class:`~repro.core.system.System`, it maps
    process ``p``'s local state to an integer in ``[0, |S_p|)`` and a
    whole configuration to a ``uint32`` vector — the representation the
    batch engine advances in lockstep and the chain builder's expander
    ranks into canonical state ids.

    Codes enumerate each process's local-state space in domain-product
    order (first variable varies slowest), matching the order used by
    configuration enumeration, so code ``c`` of process ``p`` *is* the
    mixed-radix rank of its local state — and the
    mixed-radix rank of a full code vector (process 0 slowest) is the
    configuration's position in
    :func:`~repro.core.configuration.enumerate_configurations` order.
    Two encodings of the same system are therefore interchangeable:
    every worker process can rebuild or receive one and agree on every
    code.
    """

    __slots__ = ("_states", "_codes", "_sizes", "num_processes")

    def __init__(self, system: System) -> None:
        layouts = system.layouts
        self.num_processes = len(layouts)
        self._states: list[list[LocalState]] = [
            [
                tuple(values)
                for values in product(*(s.domain for s in layout.specs))
            ]
            for layout in layouts
        ]
        self._codes: list[dict[LocalState, int]] = [
            {state: code for code, state in enumerate(states)}
            for states in self._states
        ]
        self._sizes = np.array(
            [len(states) for states in self._states], dtype=np.int64
        )
        self._sizes.flags.writeable = False

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def local_states(self, process: int) -> Sequence[LocalState]:
        """One process's local states in code order (do not mutate)."""
        return self._states[process]

    def num_local_states(self, process: int) -> int:
        """Cardinality of one process's local-state space."""
        return int(self._sizes[process])

    @property
    def sizes(self) -> np.ndarray:
        """Per-process local-state-space sizes, shape ``(N,)``."""
        return self._sizes

    # ------------------------------------------------------------------
    # single states
    # ------------------------------------------------------------------
    def encode_local(self, process: int, state: LocalState) -> int:
        """Code of one local state (validates membership)."""
        try:
            return self._codes[process][tuple(state)]
        except KeyError:
            raise ModelError(
                f"local state {state!r} is not in the domain product of"
                f" process {process}"
            ) from None

    def decode_local(self, process: int, code: int) -> LocalState:
        """Local state of one code."""
        states = self._states[process]
        if not 0 <= code < len(states):
            raise ModelError(
                f"code {code} out of range for process {process}"
                f" (has {len(states)} local states)"
            )
        return states[code]

    # ------------------------------------------------------------------
    # configurations
    # ------------------------------------------------------------------
    def encode(self, configuration: Configuration) -> np.ndarray:
        """Configuration → ``uint32`` code vector of shape ``(N,)``."""
        if len(configuration) != self.num_processes:
            raise ModelError(
                f"configuration has {len(configuration)} local states,"
                f" expected {self.num_processes}"
            )
        return np.fromiter(
            (
                self.encode_local(process, state)
                for process, state in enumerate(configuration)
            ),
            dtype=CODE_DTYPE,
            count=self.num_processes,
        )

    def decode(self, codes: Sequence[int] | np.ndarray) -> Configuration:
        """Code vector → configuration."""
        if len(codes) != self.num_processes:
            raise ModelError(
                f"code vector has {len(codes)} entries,"
                f" expected {self.num_processes}"
            )
        return tuple(
            self.decode_local(process, int(code))
            for process, code in enumerate(codes)
        )

    def encode_batch(
        self, configurations: Sequence[Configuration]
    ) -> np.ndarray:
        """Configurations → ``(T, N)`` code matrix."""
        matrix = np.empty(
            (len(configurations), self.num_processes), dtype=CODE_DTYPE
        )
        for row, configuration in enumerate(configurations):
            matrix[row] = self.encode(configuration)
        return matrix

    def decode_batch(self, matrix: np.ndarray) -> list[Configuration]:
        """``(T, N)`` code matrix → configurations."""
        return [self.decode(row) for row in matrix]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateEncoding(processes={self.num_processes},"
            f" local_states={self._sizes.tolist()})"
        )


class CompiledKernelTables:
    """Every resolved neighborhood as flat NumPy gather targets.

    Per process ``p`` with neighbors ``(q_0, ..., q_{d-1})`` the packed
    neighborhood key is the mixed-radix integer
    ``((code_p · |S_{q_0}| + code_{q_0}) · |S_{q_1}| + ...)`` plus
    ``key_offset[p]``, the start of the block of ``p``'s *process class*
    (:func:`process_classes`, recorded in ``process_class``) in one
    global flat index space.  Look-alike processes resolve every
    neighborhood identically, so each class block and its action rows
    are stored once and ``num_entries`` counts class entries.  Lookups
    over a ``(T, N)`` code matrix are then three gathers:

    * ``pack(codes)`` — neighbor gather + weighted sum → ``uint32`` keys
      ``(T, N)``;
    * ``enabled_flat[keys]`` — enabled bit per (trial, process);
    * ``sample(...)`` — two uniforms per mover, then, at the movers only:
      action choice, inverse-CDF outcome, post-state codes committed in
      place.

    ``action_index`` records, per action row, the row's position in
    ``System.actions``, so a predicate over *which* action is enabled
    (:meth:`entries_with_action`) reads the tables too.

    Every array is read-only (``writeable=False``) from construction
    on; the only state is precomputed structure, so one compiled table
    serves any number of concurrent batches and consumers, and a
    consumer that writes in place fails loudly instead of corrupting
    the others.
    """

    __slots__ = (
        "encoding",
        "neighbor_index",
        "neighbor_weight",
        "key_offset",
        "enabled_flat",
        "action_count",
        "action_base",
        "outcome_cum",
        "outcome_code",
        "outcome_prob",
        "action_index",
        "param_names",
        "outcome_prob_const",
        "outcome_prob_coeff",
        "process_class",
        "num_entries",
        "_pack_columns",
        "_cum_columns",
        "_code_flat",
        "_outcome_width",
        "_multi_action",
        "deterministic",
        "_expansion_memo",
        "_action_memo",
    )

    def __init__(
        self,
        encoding: StateEncoding,
        neighbor_index: np.ndarray,
        neighbor_weight: np.ndarray,
        key_offset: np.ndarray,
        enabled_flat: np.ndarray,
        action_count: np.ndarray,
        action_base: np.ndarray,
        outcome_cum: np.ndarray,
        outcome_code: np.ndarray,
        outcome_prob: np.ndarray,
        action_index: np.ndarray,
        process_class: np.ndarray,
        param_names: tuple[str, ...] = (),
        outcome_prob_const: np.ndarray | None = None,
        outcome_prob_coeff: np.ndarray | None = None,
    ) -> None:
        self.encoding = encoding
        self.neighbor_index = neighbor_index
        self.neighbor_weight = neighbor_weight
        self.key_offset = key_offset
        self.enabled_flat = enabled_flat
        self.action_count = action_count
        self.action_base = action_base
        self.outcome_cum = outcome_cum
        self.outcome_code = outcome_code
        self.outcome_prob = outcome_prob
        self.action_index = action_index
        self.param_names = param_names
        self.outcome_prob_const = outcome_prob_const
        self.outcome_prob_coeff = outcome_prob_coeff
        self.process_class = process_class
        self.num_entries = int(enabled_flat.shape[0])
        # Derived gather layouts of the lockstep step: per neighbor
        # column of ``pack``, a contiguous index (``None`` for the
        # identity: column 0 is every process itself) and uint32 weights
        # (``None`` when all 1); for ``sample``, the cumulative columns
        # but the last (1.0 or the 2.0 padding, never <= a uniform) and
        # the raveled post-state codes.
        identity = np.arange(neighbor_index.shape[0])
        self._pack_columns = tuple(
            (
                None
                if np.array_equal(neighbor_index[:, column], identity)
                else np.ascontiguousarray(neighbor_index[:, column]),
                None
                if (neighbor_weight[:, column] == 1).all()
                else neighbor_weight[:, column].astype(KEY_DTYPE),
            )
            for column in range(neighbor_index.shape[1])
        )
        self._cum_columns = tuple(
            np.ascontiguousarray(outcome_cum[:, column])
            for column in range(outcome_cum.shape[1] - 1)
        )
        self._code_flat = outcome_code.reshape(-1)
        self._outcome_width = int(outcome_code.shape[1])
        self._multi_action = bool(action_count.max(initial=0) > 1)
        #: True when every entry has at most one action and every action
        #: row exactly one outcome (the 2.0 padding from column 1 on):
        #: a step then reads no uniform.
        self.deterministic = not self._multi_action and bool(
            (outcome_cum[:, 1:] > 1.5).all()
        )
        #: :meth:`entries_with_action` results, per ``actions`` tuple.
        self._action_memo: dict[tuple, np.ndarray] = {}
        for name in self.__slots__:
            array = getattr(self, name, None)
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        for pair in (*self._pack_columns, self._cum_columns):
            for array in pair:
                if array is not None:
                    array.flags.writeable = False

    @property
    def num_classes(self) -> int:
        """Number of process classes (one neighborhood block each)."""
        return int(self.process_class.max()) + 1

    # ------------------------------------------------------------------
    # parametric outcome probabilities
    # ------------------------------------------------------------------
    @property
    def parametric(self) -> bool:
        """Whether any outcome probability is affine in a coin parameter."""
        return bool(self.param_names)

    def evaluate_outcome_probs(
        self, assignment: "dict[str, float]"
    ) -> np.ndarray:
        """``outcome_prob``-shaped raw probabilities at one assignment.

        For non-parametric tables this is a copy of ``outcome_prob``; for
        parametric tables each entry is its affine form evaluated in the
        canonical order of :mod:`repro.core.parametric` — bit-identical
        to the concrete table a system constructed at that assignment
        would compile.
        """
        if not self.param_names:
            return self.outcome_prob.copy()
        return evaluate_affine_arrays(
            self.outcome_prob_const,
            self.outcome_prob_coeff,
            self.param_names,
            assignment,
        )

    def outcome_prob_bounds(
        self, lows: "dict[str, float]", highs: "dict[str, float]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise outcome-probability range over a parameter box."""
        if not self.param_names:
            return self.outcome_prob.copy(), self.outcome_prob.copy()
        return affine_array_bounds(
            self.outcome_prob_const,
            self.outcome_prob_coeff,
            self.param_names,
            lows,
            highs,
        )

    # ------------------------------------------------------------------
    # gathers over code matrices
    # ------------------------------------------------------------------
    def pack(self, codes: np.ndarray) -> np.ndarray:
        """Packed ``uint32`` neighborhood keys of a ``(T, N)`` code matrix.

        Summed one neighbor column at a time in ``uint32`` (padding
        columns carry weight 0), so no ``(T, N, width)`` block is
        materialized; every partial sum is at most the final key, which
        :func:`compile_tables` keeps below ``2**32``.
        """
        codes = codes.astype(KEY_DTYPE, copy=False)
        keys = None
        for index, weight in self._pack_columns:
            column = codes if index is None else codes[:, index]
            term = column if weight is None else column * weight
            if keys is None:
                keys = term + self.key_offset
            else:
                keys += term
        return keys

    def enabled(self, keys: np.ndarray) -> np.ndarray:
        """Boolean enabled matrix for packed keys."""
        # ``take`` gathers through uint32 keys about twice as fast as
        # fancy indexing, which converts them first.
        return self.enabled_flat.take(keys)

    def sample(
        self,
        codes: np.ndarray,
        keys: np.ndarray,
        movers: np.ndarray,
        generator: np.random.Generator,
    ) -> None:
        """One lockstep step: sample the movers' actions and outcomes and
        write their post-state codes into ``codes`` in place.

        Matches the scalar sampling semantics of
        :meth:`repro.core.system.System.sample_step` in
        distribution: a uniform choice among the neighborhood's enabled
        actions, then an inverse-CDF draw from that action's outcome
        distribution.  ``movers`` must be a subset of the enabled cells.

        Uniforms are drawn only where they are read: one
        ``generator.random((M, 2))`` call for the ``M`` movers in
        row-major cell order, each mover taking its two consecutive
        uniforms as action choice, then outcome (the choice uniform is
        not read when no entry has two enabled actions).  On
        :attr:`deterministic` tables no uniform is read and none is
        drawn; the generator is advanced past the two ``keys``-shaped
        draws the full-shape layout made there instead, so seeded runs
        on deterministic tables keep their streams.  Non-movers keep
        their codes; ``codes`` must be C-contiguous.
        """
        cells = np.flatnonzero(movers)
        mover_keys = keys.reshape(-1)[cells]
        rows = self.action_base.take(mover_keys)
        if self.deterministic:
            _advance(generator, 2 * keys.size)
            slot = rows * self._outcome_width
        else:
            draws = generator.random((cells.shape[0], 2))
            if self._multi_action:
                counts = self.action_count.take(mover_keys)
                # Guard the half-open-interval edge: u · count may round
                # to count.
                choice = (draws[:, 0] * counts).astype(np.int64)
                np.minimum(choice, counts - 1, out=choice)
                rows += choice
            outcome = draws[:, 1]
            slot = rows * self._outcome_width
            for column in self._cum_columns:
                slot += outcome >= column.take(rows)
        codes.reshape(-1)[cells] = self._code_flat.take(slot)

    def entries_with_action(self, actions: Sequence[int]) -> np.ndarray:
        """Per entry: whether one of ``actions`` is enabled there.

        ``actions`` are positions in :attr:`System.actions
        <repro.core.system.System.actions>`; gather the result with
        packed keys for the cells where one of them is enabled.  The
        result depends on the tables alone, so it is memoized per
        ``actions`` tuple and read-only like every table array (the
        lockstep legitimacy test asks on every step).
        """
        key = tuple(actions)
        cached = self._action_memo.get(key)
        if cached is not None:
            return cached
        rows = int(self.action_count.sum())
        row_entry = np.repeat(np.arange(self.num_entries), self.action_count)
        hit = np.isin(self.action_index[:rows], np.asarray(actions))
        result = np.zeros(self.num_entries, dtype=bool)
        result[row_entry[hit]] = True
        result.flags.writeable = False
        self._action_memo[key] = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledKernelTables(entries={self.num_entries},"
            f" classes={self.num_classes},"
            f" action_rows={self.outcome_cum.shape[0]})"
        )


def _advance(generator: np.random.Generator, count: int) -> None:
    """Move ``generator`` past ``count`` uniforms without drawing them."""
    advance = getattr(generator.bit_generator, "advance", None)
    if advance is None:
        generator.random(count)
    else:
        advance(count)


class ExpansionContext:
    """Read-only lookups derived from one set of compiled tables.

    The substrate of the one code-space expander
    (:func:`repro.markov.builder._expand`, read by chains, parametric
    chains, MDPs and the state-space explorer) and of the synchronous
    symmetry check (:mod:`repro.stabilization.symmetry`): configurations
    rank mixed-radix over the :class:`StateEncoding`, enabledness is gathered
    per block, and successors are ``source rank + Σ (new code − old
    code) · weight``.  Everything here is deterministic structure, so
    every consumer derives identical expansions.
    """

    def __init__(self, tables: CompiledKernelTables) -> None:
        self.tables = tables
        encoding = tables.encoding
        self.num_processes = encoding.num_processes
        sizes = encoding.sizes
        # Mixed-radix configuration weights, process 0 slowest — matching
        # both enumerate_configurations order and StateEncoding codes, so
        # rank(configuration) == its id in a full-space exploration.
        weights = [1] * self.num_processes
        for process in range(self.num_processes - 2, -1, -1):
            weights[process] = weights[process + 1] * int(sizes[process + 1])
        self.config_weights = weights
        self.sizes = [int(size) for size in sizes]
        # Ranks fit int64 ⇒ the array layer and rank arithmetic are
        # safe; astronomically large spaces (only reachable through
        # explicit initial sets) take the dict walks over System.
        space_size = 1
        for size in self.sizes:
            space_size *= size
        self.int64_safe = space_size < _RANK_SPACE_LIMIT
        # Real arity of each action row (rows are padded with the 2.0
        # cum-probability sentinel).
        self.arity = (tables.outcome_cum < 1.5).sum(axis=1)
        #: First outcome code of each action row — the whole transition
        #: when the row is deterministic (arity 1).
        self.first_outcome = tables.outcome_code[:, 0].astype(np.int64)
        self.weights_row = (
            np.array(self.config_weights, dtype=np.int64)
            if self.int64_safe
            else None
        )
        #: The tables' :attr:`~CompiledKernelTables.deterministic`: the
        #: synchronous (and single-enabled central) step is then a pure
        #: function of the configuration
        #: (:meth:`deterministic_successor_ranks`).
        self.deterministic = tables.deterministic
        # Shared with every consumer of the tables: read-only like them.
        for array in (self.arity, self.first_outcome, self.weights_row):
            if array is not None:
                array.flags.writeable = False

    def codes_of_ranks(self, ranks: Sequence[int]) -> np.ndarray:
        """``(M, N)`` code matrix of configuration ranks (mixed radix;
        :attr:`int64_safe` tables only)."""
        if isinstance(ranks, np.ndarray):
            rank_array = ranks.astype(np.int64, copy=False)
        else:
            rank_array = np.fromiter(ranks, dtype=np.int64, count=len(ranks))
        matrix = np.empty(
            (len(rank_array), self.num_processes), dtype=CODE_DTYPE
        )
        for process, (weight, size) in enumerate(
            zip(self.config_weights, self.sizes)
        ):
            matrix[:, process] = (rank_array // weight) % size
        return matrix

    def all_codes(self) -> np.ndarray:
        """``(|C|, N)`` code matrix of every configuration, rank order
        (:func:`~repro.core.configuration.enumerate_configurations`
        order)."""
        return self.codes_of_ranks(np.arange(math.prod(self.sizes)))

    def rank_of(self, codes: Sequence[int] | np.ndarray) -> int:
        """Mixed-radix configuration rank of one code vector."""
        return sum(
            int(code) * weight
            for code, weight in zip(codes, self.config_weights)
        )

    def configuration_of_rank(self, rank: int) -> Configuration:
        """Decode a mixed-radix configuration rank back to a configuration."""
        encoding = self.tables.encoding
        return tuple(
            encoding.decode_local(process, (rank // weight) % size)
            for process, (weight, size) in enumerate(
                zip(self.config_weights, self.sizes)
            )
        )

    def deterministic_successor_ranks(
        self, ranks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synchronous-successor ranks + enabled counts of rank batch.

        Every enabled process fires its (unique, single-outcome) action
        at once; disabled processes keep their codes.  Valid only on
        :attr:`deterministic` + :attr:`int64_safe` tables — the central
        daemon coincides with this map exactly on configurations with at
        most one enabled process.
        """
        if not (self.deterministic and self.int64_safe):
            raise ModelError(
                "deterministic_successor_ranks requires deterministic"
                " tables and an int64-safe configuration space"
            )
        tables = self.tables
        codes = self.codes_of_ranks(ranks)
        keys = tables.pack(codes)
        enabled = tables.enabled(keys)
        rows = tables.action_base.take(keys)
        old = codes.astype(np.int64)
        new = np.where(enabled, self.first_outcome[rows], old)
        delta = ((new - old) * self.weights_row).sum(axis=1)
        ranks = np.asarray(ranks, dtype=np.int64)
        return ranks + delta, enabled.sum(axis=1)


def process_classes(system: System) -> np.ndarray:
    """Class id of every process, shape ``(N,)``, in first-seen order.

    Two processes share a class when they agree on everything a
    :class:`~repro.core.view.View` lets the anonymous local program
    observe: their own layout, constants and degree, and per local
    index the neighbor's layout, the neighbor's degree and
    ``my_index_at``.  Such processes resolve every local neighborhood
    identically (equal layouts intern equal codes in
    :class:`StateEncoding`), so :func:`compile_tables` stores one
    neighborhood block per class.  Layouts and constants compare
    type-strictly by one canonical form: layouts by
    :func:`~repro.store.columnar.canonical_layout`, constants by
    :func:`~repro.store.columnar.canonical_constants` (the cache key's
    rule).  A process whose layout or constants have no canonical form
    is its own class.
    """
    topology = system.topology
    layout_keys: list[object] = []
    for layout in system.layouts:
        try:
            layout_keys.append(canonical_layout(layout))
        except TypeError:  # equal to no other process's layout
            layout_keys.append(object())
    classes = np.empty(system.num_processes, dtype=np.int64)
    interned: dict[object, int] = {}
    num_classes = 0
    for process in system.processes:
        view_key = (
            layout_keys[process],
            tuple(
                (
                    layout_keys[neighbor],
                    topology.degree(neighbor),
                    topology.mirror_index(process, index),
                )
                for index, neighbor in enumerate(topology.neighbors(process))
            ),
        )
        try:
            constants = canonical_constants(system.constants(process))
            class_id = interned.setdefault((view_key, constants), num_classes)
        except TypeError:  # no canonical form: a class of its own
            class_id = num_classes
        if class_id == num_classes:
            num_classes += 1
        classes[process] = class_id
    return classes


def _check_budget(total: int, num_classes: int, max_entries: int) -> None:
    if total > max_entries:
        raise ModelError(
            f"class tables have {total} entries ({num_classes} process"
            f" classes), budget is {max_entries}; use the scalar"
            " System path instead"
        )
    if total >= _KEY_SPACE_LIMIT:
        raise ModelError(
            f"class tables have {total} entries ({num_classes} process"
            " classes), past the uint32 key space of 2**32; use the"
            " scalar System path instead"
        )


def compile_tables(
    system: System,
    max_entries: int = DEFAULT_TABLE_BUDGET,
) -> CompiledKernelTables:
    """Resolve one neighborhood block per process class, pack into arrays.

    Every entry is one :meth:`System.resolve_neighborhood` call, stored
    as flat NumPy rows so lookups vectorize over whole trial batches.
    Processes of one :func:`process_classes` class resolve every
    neighborhood identically, so the block (and its action rows) is
    resolved through the class's first member and stored once; every
    member's ``key_offset`` points at it.  Raises :class:`ModelError`
    when the class blocks together exceed ``max_entries`` or reach
    ``2**32`` entries (keys are ``uint32``, see
    :meth:`CompiledKernelTables.pack`).

    This is the compiler itself and always compiles.  Library consumers
    call :func:`tables_for`, the process-wide cache in front of it, so
    every consumer of one system — chain builds under several
    distributions, exploration, MDPs, vectorized marks, Monte-Carlo
    engines, forked campaign workers — shares one compilation.
    """
    encoding = StateEncoding(system)
    topology = system.topology
    num_processes = system.num_processes
    neighbors = [tuple(topology.neighbors(p)) for p in system.processes]
    width = 1 + max(len(nbrs) for nbrs in neighbors)
    process_class = process_classes(system)
    num_classes = int(process_class.max()) + 1
    representatives = np.unique(process_class, return_index=True)[1].tolist()

    # Block sizes as Python ints: a huge neighborhood space must raise
    # the budget error, not overflow int64.
    sizes = encoding.sizes.tolist()
    block_sizes = []
    for process in representatives:
        size = sizes[process]
        for neighbor in neighbors[process]:
            size *= sizes[neighbor]
        block_sizes.append(size)
    total = sum(block_sizes)
    _check_budget(total, num_classes, max_entries)
    class_offset = np.cumsum([0, *block_sizes])

    neighbor_index = np.zeros((num_processes, width), dtype=np.int64)
    neighbor_weight = np.zeros((num_processes, width), dtype=np.int64)
    for process in range(num_processes):
        members = (process, *neighbors[process])
        # Mixed-radix weights: the member listed first varies slowest.
        weight = 1
        for position in range(len(members) - 1, -1, -1):
            neighbor_index[process, position] = members[position]
            neighbor_weight[process, position] = weight
            weight *= sizes[members[position]]
    key_offset = class_offset[process_class].astype(KEY_DTYPE)

    enabled_flat = np.zeros(total, dtype=bool)
    action_count = np.zeros(total, dtype=np.int64)
    action_base = np.zeros(total, dtype=np.int64)
    row_cums: list[tuple[float, ...]] = []
    row_codes: list[tuple[int, ...]] = []
    row_probs: list[tuple[float, ...]] = []
    row_actions: list[int] = []
    # Per action row: one (constant, coefficients) term per outcome when
    # the probability is affine in coin parameters, else None.  Rows with
    # no affine outcome at all store None.
    row_affine: list[tuple | None] = []

    # Normalized cumulative rows by raw probability vector: few distinct
    # coin distributions recur across all action rows.
    cum_of: dict[tuple[float, ...], tuple[float, ...]] = {}
    # By identity: two equal actions still sit at distinct positions.
    position_of_action = {
        id(action): position for position, action in enumerate(system.actions)
    }
    for class_id, process in enumerate(representatives):
        members = (process, *neighbors[process])
        for index, key in enumerate(
            product(*(encoding.local_states(q) for q in members)),
            start=int(class_offset[class_id]),
        ):
            actions = system.resolve_neighborhood(process, key)
            enabled_flat[index] = bool(actions)
            action_count[index] = len(actions)
            action_base[index] = len(row_cums) if actions else 0
            for action, outcomes in actions:
                row_actions.append(position_of_action[id(action)])
                # The raw (pre-normalization) probabilities feed the chain
                # builder, which must reproduce the scalar oracle's branch
                # weights exactly, not modulo a normalizing division.
                probabilities = tuple(float(p) for p, _ in outcomes)
                cum = cum_of.get(probabilities)
                if cum is None:
                    raw = np.array(probabilities)
                    cumulative = np.cumsum(raw / raw.sum())
                    cumulative[-1] = 1.0  # make the inverse-CDF draw exhaustive
                    cum = cum_of[probabilities] = tuple(cumulative)
                row_cums.append(cum)
                row_probs.append(probabilities)
                terms = tuple(
                    affine_terms(probability) for probability, _ in outcomes
                )
                row_affine.append(terms if any(terms) else None)
                row_codes.append(
                    tuple(
                        encoding.encode_local(process, state)
                        for _, state in outcomes
                    )
                )

    width_out = max((len(row) for row in row_cums), default=1)
    outcome_cum = np.full((max(len(row_cums), 1), width_out), 2.0)
    outcome_code = np.zeros((max(len(row_codes), 1), width_out), dtype=CODE_DTYPE)
    outcome_prob = np.zeros((max(len(row_probs), 1), width_out))
    for row, (cums, codes, probs) in enumerate(
        zip(row_cums, row_codes, row_probs)
    ):
        outcome_cum[row, : len(cums)] = cums
        outcome_code[row, : len(codes)] = codes
        outcome_prob[row, : len(probs)] = probs
    action_index = np.zeros(outcome_cum.shape[0], dtype=np.int64)
    action_index[: len(row_actions)] = row_actions

    # Harvest affine coin-parameter forms (see repro.core.parametric):
    # constants default to the concrete probabilities, so non-affine
    # entries evaluate to themselves at every assignment, and evaluating
    # at the construction assignment reproduces ``outcome_prob`` exactly.
    names = sorted(
        {
            name
            for terms in row_affine
            if terms is not None
            for term in terms
            if term is not None
            for name, _ in term[1]
        }
    )
    param_names: tuple[str, ...] = ()
    outcome_prob_const: np.ndarray | None = None
    outcome_prob_coeff: np.ndarray | None = None
    if names:
        if len(names) > MAX_COIN_PARAMETERS:
            raise ModelError(
                f"outcome probabilities use {len(names)} coin parameters"
                f" ({names}); at most {MAX_COIN_PARAMETERS} are supported"
            )
        param_names = tuple(names)
        position_of = {name: k for k, name in enumerate(param_names)}
        outcome_prob_const = outcome_prob.copy()
        outcome_prob_coeff = np.zeros(
            (outcome_prob.shape[0], width_out, len(param_names))
        )
        for row, terms in enumerate(row_affine):
            if terms is None:
                continue
            for slot, term in enumerate(terms):
                if term is None:
                    continue
                constant, coefficients = term
                outcome_prob_const[row, slot] = constant
                for name, coefficient in coefficients:
                    outcome_prob_coeff[row, slot, position_of[name]] = (
                        coefficient
                    )

    return CompiledKernelTables(
        encoding=encoding,
        neighbor_index=neighbor_index,
        neighbor_weight=neighbor_weight,
        key_offset=key_offset,
        enabled_flat=enabled_flat,
        action_count=action_count,
        action_base=action_base,
        outcome_cum=outcome_cum,
        outcome_code=outcome_code,
        outcome_prob=outcome_prob,
        action_index=action_index,
        process_class=process_class,
        param_names=param_names,
        outcome_prob_const=outcome_prob_const,
        outcome_prob_coeff=outcome_prob_coeff,
    )


#: Entry bound of :data:`TABLE_CACHE`, sized from measured traffic: a
#: registry pass touches 188 distinct systems, campaign-66 touches 6.
TABLE_CACHE_SIZE = 256

#: The process-wide compiled-table cache behind :func:`tables_for`.
TABLE_CACHE = SignatureLRU("tables", TABLE_CACHE_SIZE)


def tables_for(
    system: System,
    max_entries: int = DEFAULT_TABLE_BUDGET,
) -> CompiledKernelTables:
    """The compiled tables of ``system``, shared process-wide.

    The one table cache: keyed by system content
    (:func:`repro.store.columnar.system_cache_key`), so value-equal
    systems built independently — by the explorer, the chain builder,
    the MDP, a sweep runner, a serving tenant — share one
    :func:`compile_tables` run; single-flight across threads, LRU-bounded
    at :data:`TABLE_CACHE_SIZE` systems.
    A hit opens no compilation and still enforces ``max_entries``,
    raising the same :class:`ModelError` a compilation would; a failed
    compilation caches nothing.  A system without a content address
    (a constant with no canonical form) compiles on every call.
    Encodings of one system are interchangeable (see
    :class:`StateEncoding`), so callers use ``tables.encoding``.
    """

    def build() -> CompiledKernelTables:
        return compile_tables(system, max_entries)

    key = system_cache_key(system)
    tables = build() if key is None else TABLE_CACHE.get_or_build(key, build)
    _check_budget(tables.num_entries, tables.num_classes, max_entries)
    return tables


def expansion_context(tables: CompiledKernelTables) -> ExpansionContext:
    """Memoized :class:`ExpansionContext` for one set of compiled tables.

    The context is pure derived structure, so every consumer sharing a
    table object (the chain builder, the parametric chain, the symmetry
    check) can share one instance; the memo lives on the tables so it
    dies with them.
    """
    cached = getattr(tables, "_expansion_memo", None)
    if cached is None:
        cached = ExpansionContext(tables)
        tables._expansion_memo = cached
    return cached
