"""Vectorized exact-computation kernels (numpy-backed, bit-identical).

The exact analyzers walk protocol trees, rectangle lattices, and joint
laws one Python object at a time; this module re-expresses the hot loops
over numpy arrays **without changing a single bit of any result**.  Every
kernel here is a drop-in replacement for a specific legacy loop and is
pinned bit-identical to it by ``tests/perf/test_kernels.py`` — the dict
APIs stay the source of truth, the arrays are just a faster engine.

Bit-identity contract
---------------------
IEEE-754 elementwise array arithmetic (``*``, ``/``, ``+`` on float64)
is correctly rounded and therefore matches CPython scalar arithmetic
exactly.  Three operations are *not* automatically identical and are
handled explicitly everywhere:

* **Transcendentals** — ``np.log2`` may differ from ``math.log2`` by an
  ulp.  Kernels never call numpy transcendentals; they deduplicate the
  argument array (``np.unique``) and evaluate the scalar function once
  per distinct value (:func:`_exact_log2`, :func:`_exact_binary_entropy`).
* **Reductions** — ``np.sum`` uses pairwise summation, which no legacy
  loop does.  Where the legacy twin calls builtin ``sum()`` (directly
  or through the normalizing ``DiscreteDistribution`` constructor) the
  kernel calls builtin ``sum(arr.tolist())`` too: from Python 3.12 on,
  ``sum()`` of floats is Neumaier-compensated, so only the builtin
  itself reproduces it on every version.  Where the legacy twin is an
  explicit ``total += x`` loop the kernel folds with
  :func:`ordered_sum`.  Two-term sums are exempt: IEEE addition is
  commutative bit-for-bit, and a compensated two-term sum rounds to the
  plain one.
* **Ordering** — dict iteration order is first-seen insertion order.
  Group-bys reconstruct it from ``np.unique(..., return_index=...)``
  plus a stable argsort of the first-occurrence indices.

One engine, size-selected paths
-------------------------------
There is one exact-analysis engine and no kernel switch.  The tree walk
and the columnar joint always run on arrays.  Where a pure-Python loop
survives next to an array path, the call site picks it by input size
alone: supports below :data:`_VECTOR_MIN_SUPPORT` outcomes take the
scalar folds of the information functionals, and rectangle DPs above
:data:`_E14_CELL_CAP` cells take the memoized recursion of
``repro.lowerbounds.optimal_information``.  Tests move either gate
with ``monkeypatch`` to reach the other side.  The retired dict-driven
shared walk and its dict fold live on as references in
``repro.check.mutations``, where ``tests/perf/test_kernels.py``,
``tests/core/test_columnar_joint.py`` and
``benchmarks/test_reference_engines.py`` compare them with this
engine.

numpy is a declared dependency (``pyproject.toml``: ``numpy>=1.21``)
and is imported lazily through this module only, so ``repro`` still
imports on an interpreter without it; the exact analyzer, the hard
input laws and E1's ``random_instance`` then fail with the one clear
error from :func:`require_numpy`.

Observability: each array-path invocation increments the
``kernel_vectorized_calls`` counter (labeled ``op=...``) when metrics
collection is enabled, the one record of which side of the size gates
ran.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..coding.bitops import popcount
from ..information.entropy import binary_entropy
from ..obs.metrics import REGISTRY

__all__ = [
    "numpy_available",
    "require_numpy",
    "ordered_sum",
    "SortedLeaves",
    "JointColumns",
    "InputColumns",
    "input_codes",
    "input_columns",
    "scenario_columns",
    "encoded_law",
    "tree_walk_sorted_leaves",
    "columnar_joint",
    "joint_columns",
    "mutual_information_fast",
    "conditional_mutual_information_fast",
    "class_conditioned_probabilities",
    "per_player_divergence_sum_fast",
    "minimum_entropy_supported",
    "minimum_entropy",
    "simulate_trivial_disjointness",
    "simulate_naive_disjointness",
    "simulate_optimal_disjointness",
]

#: Joint laws with fewer outcomes than this run the scalar folds — array
#: setup costs more than it saves on tiny supports.  Tests monkeypatch
#: this to 0 to force the array paths onto small fixtures, or above
#: every support to force the folds.
_VECTOR_MIN_SUPPORT = 64

#: Ceiling on ``3**k * z_count`` for the vectorized E14 rectangle DP:
#: its index tables hold one entry per rectangle (``3**k``), and its
#: masses at most that many per ``z``.  Larger instances run the
#: memoized recursion, and tests set it to 0 to force the recursion
#: everywhere.
_E14_CELL_CAP = 8_000_000

#: Mixed-radix lineage codes in the tree walk spill into a frozen column
#: once the running radix product would exceed this many bits (int64 is
#: signed, so 62 leaves headroom for the final multiply).  Tests
#: monkeypatch this down to force the spill path on small protocols.
_LINEAGE_BITS = 62

_NUMPY_UNRESOLVED = object()
_numpy: Any = _NUMPY_UNRESOLVED


# ----------------------------------------------------------------------
# numpy guard
# ----------------------------------------------------------------------
def _resolve_numpy() -> Any:
    global _numpy
    if _numpy is _NUMPY_UNRESOLVED:
        try:
            import numpy  # noqa: PLC0415 - the one lazy import site

            _numpy = numpy
        except ImportError:
            _numpy = None
    return _numpy


def numpy_available() -> bool:
    """Whether numpy can be imported (checked once, cached)."""
    return _resolve_numpy() is not None


def require_numpy() -> Any:
    """Return the numpy module, or raise the one canonical error.

    numpy is a declared dependency (``pyproject.toml`` lists
    ``numpy>=1.21``); ``repro`` imports without it, but the exact
    analyzer, the batched sampler and everything else that reads arrays
    stops here.
    """
    np_ = _resolve_numpy()
    if np_ is None:
        raise ImportError(
            "repro's array kernels require numpy, which could not be "
            "imported; install the declared dependency (pyproject.toml: "
            "numpy>=1.21)"
        )
    return np_


def get_kernel() -> str:
    """Shim for ``perfbench/pin.py``: the one engine."""
    return "vectorized"


def set_kernel(name: Optional[str]) -> None:
    """Shim for ``perfbench/pin.py``: ``None`` or ``"vectorized"``."""
    if name == "legacy":
        raise ValueError("the legacy kernel is now the check "
                         "benchmarks/test_reference_engines.py")
    if name not in (None, "vectorized"):
        raise ValueError(f"unknown kernel {name!r}")
    require_numpy()


def _count_call(op: str) -> None:
    if REGISTRY.enabled:
        REGISTRY.counter("kernel_vectorized_calls").inc(1, op=op)


# ----------------------------------------------------------------------
# Exact-arithmetic helpers
# ----------------------------------------------------------------------
def ordered_sum(values: Any) -> float:
    """Left-to-right fold of a 1-D float64 array, starting from ``0.0``
    — bit-identical to an explicit ``total = 0.0; total += x`` loop over
    the same values in the same order.

    Not a stand-in for builtin ``sum()``: from Python 3.12 on, ``sum()``
    of floats carries a Neumaier compensation term, so a kernel whose
    legacy twin calls ``sum()`` must call ``sum(values.tolist())``
    itself."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _exact_log2(np_: Any, values: Any) -> Any:
    """``math.log2`` applied elementwise, via deduplication — numpy's
    ``log2`` is not guaranteed ulp-identical to the C library call the
    legacy scalar loops make."""
    uniq, inverse = np_.unique(values, return_inverse=True)
    lut = np_.array([math.log2(v) for v in uniq.tolist()], dtype=np_.float64)
    return lut[inverse]


def _exact_binary_entropy(np_: Any, values: Any) -> Any:
    """:func:`repro.information.entropy.binary_entropy` elementwise, via
    deduplication (same ulp argument as :func:`_exact_log2`)."""
    uniq, inverse = np_.unique(values, return_inverse=True)
    lut = np_.array(
        [binary_entropy(v) for v in uniq.tolist()], dtype=np_.float64
    )
    return lut[inverse]


def _first_seen_codes(np_: Any, values: Any) -> Tuple[Any, Any, int]:
    """Dense codes in **first-seen** order for an integer array.

    Returns ``(fs_codes, originals_in_fs_order, count)`` where
    ``originals_in_fs_order[rank]`` is the input value that received
    ``rank`` — reproducing dict-insertion group order from sorted
    ``np.unique`` output.
    """
    uniq, first_idx, inverse = np_.unique(
        values, return_index=True, return_inverse=True
    )
    order = np_.argsort(first_idx, kind="stable")
    rank = np_.empty(len(uniq), dtype=np_.int64)
    rank[order] = np_.arange(len(uniq), dtype=np_.int64)
    return rank[inverse], uniq[order], len(uniq)


def _encode_values(np_: Any, values: Any, count: int) -> Tuple[Any, List[Any]]:
    """First-seen dense codes of ``count`` hashable values, plus the
    decoded value list (code -> original value)."""
    # setdefault inserts len(table) only for an unseen value, so codes
    # number values in first-seen order and the keys list them in it.
    table: Dict[Any, int] = {}
    codes = np_.fromiter(
        [table.setdefault(value, len(table)) for value in values],
        dtype=np_.int64,
        count=count,
    )
    return codes, list(table)


class SortedLeaves(NamedTuple):
    """The vectorized walk's leaf table, as arrays.

    ``counts[j]`` rows belong to input ``j``; row ``r`` is leaf
    ``leaf_ids[r]`` (the transcript ``boards[leaf_ids[r]]``) reached with
    probability ``probs[r]``, each input's rows in its per-input DFS
    leaf order.
    """

    counts: Any  # int64, one per input
    leaf_ids: Any  # int64, one per row
    probs: Any  # float64, one per row
    boards: Any  # object array of transcripts, one per leaf id

    def rows(self) -> Tuple[List[int], List[Any], List[float]]:
        """``(counts, boards, probabilities)`` as the flat per-row lists
        the legacy walk returns."""
        return (
            self.counts.tolist(),
            self.boards[self.leaf_ids].tolist(),
            self.probs.tolist(),
        )


class JointColumns:
    """The column encoding of a joint law, cached on the (immutable)
    :class:`~repro.information.distribution.JointDistribution` in its
    ``_columns`` slot.

    ``p`` is the float64 array of the stored probabilities in item
    order.  ``codes[c]`` numbers component ``c``'s values densely in
    first-seen item order and ``values[c][code]`` decodes them.  A joint
    built by :func:`columnar_joint` carries them from the start; a
    hand-built one is encoded on first use (:func:`joint_columns`).
    ``outcomes``, when set, returns the outcome tuples in item order,
    for a joint whose dict is built only when something asks for it.
    """

    __slots__ = ("p", "codes", "values", "outcomes")

    def __init__(
        self,
        p: Any,
        codes: List[Any],
        values: List[List[Any]],
        outcomes: Optional[Callable[[], List[Tuple[Any, ...]]]] = None,
    ) -> None:
        self.p = p
        self.codes = codes
        self.values = values
        self.outcomes = outcomes


class InputColumns:
    """The encoded population of an input law: what the shared walk and
    the columnar joint read instead of re-deriving it from tuples.

    Cached on the (immutable)
    :class:`~repro.information.distribution.DiscreteDistribution` in its
    ``_columns`` slot, as :class:`JointColumns` is on a joint.  Over the
    law's ``m`` outcomes in item order:

    * ``p`` -- float64 masses;
    * ``outcomes`` -- the outcomes themselves;
    * ``inputs`` -- the distinct input tuples in first-seen order, as the
      protocol hooks receive their coordinates; outcome ``s`` runs as
      ``inputs[member[s]]``, and ``member`` is ``None`` when every
      outcome is its own input (``member == arange(m)``);
    * ``codes`` -- an ``(len(inputs), k)`` integer matrix numbering each
      coordinate's values (int8 when every code fits), every code below
      ``span``; the walk's partition keys.  ``None`` when the tuples are
      not one matrix (ragged widths, unhashable coordinates): the
      dict-driven walk takes those;
    * ``scenario`` -- ``None`` for a law over input tuples, whose joint
      outcomes are ``(x, transcript)``.  For a law over scenario tuples
      (``(x, aux)`` as in Definition 6), joint outcomes are ``outcome +
      (transcript,)`` and ``scenario[c]`` encodes component ``c``: its
      first-seen codes and values, or ``None`` where the component is
      the input tuple itself (codes ``member``, values ``inputs``).

    Built by :func:`input_columns` on first use, or by a constructor
    that knows its row order (:func:`encoded_law`).  Not pickled.
    """

    __slots__ = ("p", "outcomes", "inputs", "member", "codes", "span",
                 "scenario")

    def __init__(
        self,
        p: Any,
        outcomes: Sequence[Any],
        inputs: Sequence[Tuple[Any, ...]],
        member: Any,
        codes: Any,
        span: int,
        scenario: Optional[List[Optional[Tuple[Any, List[Any]]]]] = None,
    ) -> None:
        self.p = p
        self.outcomes = outcomes
        self.inputs = inputs
        self.member = member
        self.codes = codes
        self.span = span
        self.scenario = scenario

    def renormalized(self) -> "InputColumns":
        """The scenario law ``law.map(lambda x: (x,))`` of a law over
        input tuples, without the map.

        One law's outcomes are distinct, so ``map`` adds each mass to
        ``0.0`` once; its normalizing constructor keeps the positive
        masses and stores ``p * (1.0 / sum(ps))``, the total being
        builtin ``sum()`` in item order.  Those are these floats.
        """
        p = self.p
        scaled = p * (1.0 / sum(p.tolist()))
        keep = p > 0.0
        if bool(keep.all()):
            return InputColumns(
                scaled, self.outcomes, self.inputs, None, self.codes,
                self.span,
            )
        rows = keep.nonzero()[0]
        outcomes = [self.outcomes[row] for row in rows.tolist()]
        codes = None if self.codes is None else self.codes[rows]
        return InputColumns(
            scaled[keep], outcomes, outcomes, None, codes, self.span
        )


def _narrow_codes(np_: Any, codes: Any, span: int) -> Any:
    return codes.astype(np_.int8) if span <= 127 else codes


def _value_codes(np_: Any, values: Any) -> Tuple[Any, int]:
    """Codes of a non-empty integer matrix whose values span less than
    ``2**20``: the values shifted to start at 0."""
    vmin = int(values.min())
    span = int(values.max()) - vmin + 1
    codes = values - vmin if vmin else values
    return _narrow_codes(np_, codes, span), span


def input_codes(inputs: Sequence[Tuple[Any, ...]]) -> Tuple[Any, int]:
    """``(codes, span)`` for a population of input tuples: one integer
    column per coordinate, each code below ``span``.

    Any per-column numbering works: the walk recovers partition *order*
    from first-member positions and fetches a partition's speaker input
    from the original tuple of its first member, so codes never reach a
    protocol hook.  Small integers are coded by value (shifted to start
    at 0) from a single ``asarray``; wide integers per column through
    ``np.unique``; anything else (bigint masks, strings, nested tuples)
    per column in first-seen order through a dict.  ``(None, 0)`` when
    the tuples are ragged or a coordinate is unhashable.
    """
    np_ = require_numpy()
    m = len(inputs)
    if not m:
        return np_.zeros((0, 0), dtype=np_.int8), 1
    try:
        candidate = np_.asarray(inputs)
    except (TypeError, ValueError):
        candidate = None
    if (
        candidate is not None
        and candidate.ndim == 2
        and candidate.dtype.kind in ("i", "u")
    ):
        if int(candidate.max()) - int(candidate.min()) < (1 << 20):
            return _value_codes(np_, candidate)
        codes = np_.empty(candidate.shape, dtype=np_.int64)
        for j in range(candidate.shape[1]):
            codes[:, j] = np_.unique(candidate[:, j], return_inverse=True)[1]
        span = int(codes.max()) + 1
        return _narrow_codes(np_, codes, span), span
    try:
        width = len(inputs[0])
        if any(len(key) != width for key in inputs):
            return None, 0
        codes = np_.empty((m, width), dtype=np_.int64)
        for j in range(width):
            table: Dict[Any, int] = {}
            column = codes[:, j]
            for row, key in enumerate(inputs):
                value = key[j]
                code = table.get(value)
                if code is None:
                    code = table[value] = len(table)
                column[row] = code
    except TypeError:
        return None, 0
    span = int(codes.max()) + 1 if codes.size else 1
    return _narrow_codes(np_, codes, span), span


def input_columns(law: Any, *, paired: bool = False) -> InputColumns:
    """The cached :class:`InputColumns` of ``law``, encoded on first use.

    ``paired=False`` reads ``law`` as a law over input tuples (the
    ``input_dist`` of :func:`repro.core.analysis.transcript_joint`);
    ``paired=True`` as the ``(inputs, aux)`` law :math:`\\mu` of
    Definition 6, raising ``TypeError`` on an outcome that is not such a
    pair.  The slot holds one reading; asking for the other re-encodes.
    """
    columns = law._columns  # noqa: SLF001 - the law's cache slot
    if columns is not None and (columns.scenario is not None) == paired:
        return columns
    np_ = require_numpy()
    outcomes = law.support()
    m = len(outcomes)
    p = np_.fromiter(
        law._probs.values(), dtype=np_.float64, count=m  # noqa: SLF001
    )
    if not paired:
        codes, span = input_codes(outcomes)
        columns = InputColumns(p, outcomes, outcomes, None, codes, span)
    else:
        for outcome in outcomes:
            if not (isinstance(outcome, tuple) and len(outcome) == 2):
                raise TypeError(
                    "mu must be over (inputs, aux) pairs, got outcome "
                    f"{outcome!r}"
                )
        member, inputs = _encode_values(np_, (x for x, _aux in outcomes), m)
        codes, span = input_codes(inputs)
        aux = _encode_values(np_, (aux for _x, aux in outcomes), m)
        columns = InputColumns(
            p, outcomes, inputs, member, codes, span, [None, aux]
        )
    law._columns = columns  # noqa: SLF001
    return columns


def scenario_columns(
    scenarios: Any, inputs_of: Callable[[Any], Sequence[Any]]
) -> InputColumns:
    """The :class:`InputColumns` of a law over scenario tuples, each
    scenario running as walk input ``tuple(inputs_of(scenario))``.

    Distinct scenarios may share an input tuple (different values of
    the auxiliary variable D for the same X): each distinct tuple gets
    one member code, in first-seen order.  A component that *is* the
    input tuple of every scenario takes the member numbering; every
    other component is coded first-seen.  Not cached: ``inputs_of`` is
    the caller's.
    """
    np_ = require_numpy()
    outcomes = scenarios.support()
    for scenario in outcomes:
        if not isinstance(scenario, tuple):
            raise TypeError(
                f"scenario outcomes must be tuples, got {scenario!r}"
            )
    arities = {len(scenario) + 1 for scenario in outcomes}
    if len(arities) != 1:
        raise ValueError("all outcomes of a joint distribution must be "
                         f"tuples of equal length, got lengths {arities}")
    count = len(outcomes)
    keys = [tuple(inputs_of(scenario)) for scenario in outcomes]
    member, inputs = _encode_values(np_, keys, count)
    components: List[Optional[Tuple[Any, List[Any]]]] = []
    for index in range(len(outcomes[0])):
        if all(s[index] is key for s, key in zip(outcomes, keys)):
            components.append(None)
        else:
            components.append(
                _encode_values(np_, (s[index] for s in outcomes), count)
            )
    probs = scenarios._probs  # noqa: SLF001 - the law's stored masses
    p = np_.fromiter(probs.values(), dtype=np_.float64, count=count)
    return InputColumns(p, outcomes, inputs, member, None, 0, components)


def encoded_law(
    outcomes: Sequence[Any],
    p: Any,
    codes: Any,
    *,
    inputs: Optional[Sequence[Tuple[Any, ...]]] = None,
    member: Any = None,
    aux: Optional[Tuple[Any, List[Any]]] = None,
) -> Any:
    """A law built together with its :class:`InputColumns`, for the
    constructors that know their row order.

    ``outcomes`` (distinct) and the float64 ``p`` must be exactly what
    the validating constructor would store, in item order; ``codes`` is
    the small-int matrix of the distinct inputs (``inputs``, default
    ``outcomes``).  A law over ``(x, aux)`` pairs also passes ``member``
    (first-seen codes of ``x``) and ``aux`` (first-seen codes and
    values of the aux column), as :func:`input_columns` would.
    """
    from ..information.distribution import DiscreteDistribution

    np_ = require_numpy()
    law = DiscreteDistribution._from_normalized(
        dict(zip(outcomes, p.tolist()))
    )
    codes, span = _value_codes(np_, codes)
    law._columns = InputColumns(  # noqa: SLF001
        p,
        outcomes,
        outcomes if inputs is None else inputs,
        member,
        codes,
        span,
        None if aux is None else [None, aux],
    )
    return law


# ----------------------------------------------------------------------
# Batched protocol-tree walk (core.tree pass 2)
# ----------------------------------------------------------------------
def tree_walk_sorted_leaves(
    protocol: Any,
    input_keys: Sequence[Tuple[Any, ...]],
    *,
    codes: Any = None,
    span: int = 0,
    medium: Optional[Any] = None,
) -> Tuple[SortedLeaves, int, int, int]:
    """One shared level-synchronous walk of the protocol tree over a
    population of input tuples, vectorized over the population.

    Returns ``(leaves, nodes_expanded, union_leaves, max_depth)`` where
    ``leaves`` is a :class:`SortedLeaves`: every input's leaf rows
    concatenated in input order — ``counts[j]`` rows for
    ``input_keys[j]`` — **already in the legacy post-sort order**
    (descending lexicographic child-index path — the order a per-input
    DFS emits leaves in), each row an
    integer leaf id and a float64 probability.  :meth:`SortedLeaves.rows`
    resolves them into the legacy walk's flat lists; :func:`columnar_joint`
    keeps them as arrays.

    The population comes encoded: ``codes`` and ``span`` are its
    :class:`InputColumns` coordinate codes (row ``j`` codes
    ``input_keys[j]``), which partition every level.  Bare tuples are
    encoded here by :func:`input_codes` (``TypeError`` if they cannot
    be).  ``input_keys`` is read only where a protocol hook needs an
    input: a partition's first member and a one-input subtree's root.

    The walk batches *every node of a depth level* into single
    index/probability/path arrays: one composite-key stable sort
    partitions all nodes of the level at once (each block's order within
    a node is recovered from its first member, matching the legacy
    dict-insertion partition order), and the next level's arrays are
    built with one gather index plus one elementwise multiply; leaves
    are likewise taken one chunk per level.  Python work per node is
    O(1): messages are interned once per walk and boards extend in O(1).
    Path
    columns are only materialized at levels where some partition has two
    or more positive outcomes — at any other level a member cannot fork,
    so the column could never decide the within-member leaf order.

    ``medium`` (default: the blackboard) checks every scheduled edge; a
    node whose speaker is an input-less auxiliary node (id ``>= k``)
    keeps its population whole, through an all-zero code column.

    One-input subtrees: at the top of each level, every frontier node
    whose population is a single row leaves the level arrays, and a
    per-input DFS finishes its subtree with the same per-node calls
    (``next_edge``, the speaker range check, ``medium.check_edge``, the
    message law with ``x[speaker]`` or ``None``, the
    ``p <= 0.0`` prune, the empty-message check, the interned message,
    ``advance_state``, ``board.extend`` and the depth limit, the
    protocol's ``max_messages``).  On AND's
    truncated hard supports almost every node is of this kind: a prefix
    that already holds its last zero has one input under it.  The DFS
    pushes children in message order and pops them LIFO, so the
    subtree's leaves come out in descending index-path order, and each
    probability is the same left fold ``prob * p`` the level arrays
    compute.  The leaves of all subtrees split off at one level form one
    leaf chunk carrying their root rows' lineage codes, spills and
    scale: leaves of one subtree tie on every sort key, so the stable
    final sort keeps the DFS order, and they differ from the member's
    other rows in a digit of a branched level both were alive for,
    exactly like any other leaf.  A population of one input builds no
    arrays at all: the DFS walks it from the root.
    """
    # Local import: core.model is import-safe from here (the model layer
    # never imports repro.perf).
    from ..core.model import (
        BROADCAST,
        EMPTY_TRANSCRIPT,
        Message,
        ProtocolViolation,
    )

    np_ = require_numpy()
    _count_call("tree_walk")
    if medium is None:
        medium = BROADCAST

    m = len(input_keys)
    k = protocol.num_players
    max_messages = protocol.max_messages
    num_nodes = medium.num_nodes(k)
    uncodable = "input tuples are ragged or have unhashable coordinates"

    # Leaves are recorded once per level as one chunk: (leaf ids, member
    # indices, probabilities, frozen spill columns, lineage codes,
    # lineage scale at the level).  Every leaf of a level shares the
    # spill columns and the scale, so the chunk keeps them once.
    leaf_boards: List[Any] = []
    leaf_chunks: List[Tuple[Any, Any, Any, List[Any], Any, int]] = []
    # One Message per distinct (speaker, bits, link) for the whole walk:
    # each is validated once by the Message constructor, then shared by
    # every node that writes it (messages are immutable values).
    messages: Dict[Tuple[int, str, Any], Any] = {}
    nodes_expanded = 0
    max_depth = 0
    check_edge = medium.check_edge
    frontier: List[Tuple[Any, Any]] = [
        (protocol.initial_state(), EMPTY_TRANSCRIPT)
    ]
    sizes: List[int] = [m]
    # A row's child-index path is carried as ONE int64 "lineage" code:
    # the MSB-first mixed-radix encoding of the indices chosen at
    # branching levels (levels where some partition had two or more
    # positive outcomes — at any other level a member cannot fork, so
    # the index could never decide the within-member leaf order).
    # Numeric order of lineage codes == lexicographic order of the
    # index paths.  If the running radix product would overflow
    # 2**_LINEAGE_BITS, the live codes are frozen into a "spill" column
    # and the lineage restarts; the final sort keys on the spills in
    # freeze order, then the live code.
    A_lin = np_.zeros(m, dtype=np_.int64)
    A_spills: List[Any] = []
    lin_scale = 1
    epoch_scales: List[int] = []
    next_edge = protocol.next_edge
    advance_state = protocol.advance_state
    message_distribution = protocol.message_distribution
    tail_probs: List[float] = []

    def finish_subtree(
        state: Any, board: Any, key: Tuple[Any, ...], prob: float, depth: int
    ) -> Tuple[int, int]:
        """Per-input DFS of one node whose population is the single input
        ``key``, making the level walk's per-node calls; appends its
        leaves to ``leaf_boards`` / ``tail_probs`` in descending
        index-path order and returns ``(nodes, deepest depth)``."""
        nodes = 0
        deepest = depth
        stack = [(state, board, prob, depth)]
        pop = stack.pop
        push = stack.append
        while stack:
            state, board, prob, depth = pop()
            nodes += 1
            if depth > max_messages:
                raise ProtocolViolation(
                    f"protocol exceeded {max_messages} messages during "
                    "exact enumeration"
                )
            if depth > deepest:
                deepest = depth
            edge = next_edge(state, board)
            if edge is None:
                leaf_boards.append(board)
                tail_probs.append(prob)
                continue
            speaker, link = edge
            if not 0 <= speaker < num_nodes:
                raise ProtocolViolation(
                    f"next_edge returned invalid player {speaker!r}"
                )
            check_edge(k, speaker, link)
            dist = message_distribution(
                state, speaker, key[speaker] if speaker < k else None, board
            )
            depth += 1
            for bits, p in dist.items():
                if p <= 0.0:
                    continue
                if bits == "":
                    raise ProtocolViolation(
                        "protocols may not write empty messages"
                    )
                message = messages.get((speaker, bits, link))
                if message is None:
                    message = messages[(speaker, bits, link)] = Message(
                        speaker, bits, link
                    )
                push(
                    (
                        advance_state(state, message),
                        board.extend(message),
                        prob * p,
                        depth,
                    )
                )
        return nodes, deepest

    if m == 1:
        # One input is one subtree: the DFS finishes it from the root,
        # and its leaves come out in their final order.
        if codes is None:
            # What input_codes refuses in one tuple: an unhashable
            # coordinate.
            try:
                hash(tuple(input_keys[0]))
            except TypeError:
                raise TypeError(uncodable) from None
        nodes_expanded, max_depth = finish_subtree(
            frontier[0][0], frontier[0][1], input_keys[0], 1.0, 0
        )
        union_leaves = len(leaf_boards)
        boards_arr = np_.empty(union_leaves, dtype=object)
        for leaf_index, board in enumerate(leaf_boards):
            boards_arr[leaf_index] = board
        leaves = SortedLeaves(
            np_.array([union_leaves], dtype=np_.int64),
            np_.arange(union_leaves, dtype=np_.int64),
            np_.array(tail_probs, dtype=np_.float64),
            boards_arr,
        )
        return leaves, nodes_expanded, union_leaves, max_depth

    if codes is None:
        codes, span = input_codes(input_keys)
        if codes is None:
            raise TypeError(uncodable)
    if num_nodes > k:
        # Column k, all zeros, is the code column of every input-less
        # node: the whole population forms one partition there.
        codes = np_.concatenate(
            [codes, np_.zeros((m, 1), dtype=codes.dtype)], axis=1
        )
    A_idx = np_.arange(m, dtype=np_.int64)
    A_probs = np_.ones(m, dtype=np_.float64)
    level = 0
    while frontier:
        sizes_arr = np_.array(sizes, dtype=np_.int64)
        single = sizes_arr == 1
        if single.any():
            # Nodes holding one input row leave the level arrays: a
            # per-input DFS finishes each subtree, and its leaves form
            # one chunk carrying the root rows' lineage codes and spills.
            tail_rows = (np_.cumsum(sizes_arr) - 1)[single]
            first_tail = len(leaf_boards)
            tail_counts: List[int] = []
            for node, row, prob in zip(
                itertools.compress(frontier, single.tolist()),
                A_idx[tail_rows].tolist(),
                A_probs[tail_rows].tolist(),
            ):
                before = len(leaf_boards)
                nodes, deepest = finish_subtree(
                    node[0], node[1], input_keys[row], prob, level
                )
                nodes_expanded += nodes
                if deepest > max_depth:
                    max_depth = deepest
                tail_counts.append(len(leaf_boards) - before)
            leaf_rows = np_.repeat(tail_rows, tail_counts)
            leaf_chunks.append(
                (
                    np_.arange(first_tail, len(leaf_boards), dtype=np_.int64),
                    A_idx[leaf_rows],
                    np_.array(tail_probs, dtype=np_.float64),
                    [spill[leaf_rows] for spill in A_spills],
                    A_lin[leaf_rows],
                    lin_scale,
                )
            )
            tail_probs.clear()
            keep = ~single
            if not keep.any():
                break
            frontier = list(itertools.compress(frontier, keep.tolist()))
            row_keep = np_.repeat(keep, sizes_arr)
            sizes_arr = sizes_arr[keep]
            sizes = sizes_arr.tolist()
            A_idx = A_idx[row_keep]
            A_probs = A_probs[row_keep]
            A_lin = A_lin[row_keep]
            A_spills = [spill[row_keep] for spill in A_spills]
        # Every node at this level has written exactly `level` messages,
        # so the depth bookkeeping is once per level, not per node.
        if level > max_messages:
            raise ProtocolViolation(
                f"protocol exceeded {max_messages} messages during exact "
                "enumeration"
            )
        if level > max_depth:
            max_depth = level
        nodes_expanded += len(frontier)
        active: List[Tuple[Any, Any, int, Any]] = []
        live: List[bool] = []
        first_leaf = len(leaf_boards)
        for state, board in frontier:
            edge = protocol.next_edge(state, board)
            if edge is None:
                leaf_boards.append(board)
                live.append(False)
                continue
            speaker, link = edge
            if not 0 <= speaker < num_nodes:
                raise ProtocolViolation(
                    f"next_edge returned invalid player {speaker!r}"
                )
            check_edge(k, speaker, link)
            active.append((state, board, speaker, link))
            live.append(True)
        if len(active) == len(frontier):
            # Rows of the level's arrays that belong to active nodes
            # (None: all of them).
            act_rows = None
            act_sizes = sizes_arr
            act_idx = A_idx
        else:
            live_arr = np_.array(live, dtype=bool)
            row_live = np_.repeat(live_arr, sizes_arr)
            leaf_rows = np_.flatnonzero(~row_live)
            leaf_chunks.append(
                (
                    np_.repeat(
                        np_.arange(
                            first_leaf, len(leaf_boards), dtype=np_.int64
                        ),
                        sizes_arr[~live_arr],
                    ),
                    A_idx[leaf_rows],
                    A_probs[leaf_rows],
                    [spill[leaf_rows] for spill in A_spills],
                    A_lin[leaf_rows],
                    lin_scale,
                )
            )
            if not active:
                break
            act_rows = np_.flatnonzero(row_live)
            act_sizes = sizes_arr[live_arr]
            act_idx = A_idx[act_rows]
        total = int(act_idx.shape[0])
        # One composite-key stable sort partitions every active node at
        # once.  Stability keeps rows in insertion order inside each
        # block, so a block's first row is the partition's first member
        # — which both orders the blocks (the legacy partitions-dict
        # insertion order) and supplies the speaker's original input.
        key = np_.repeat(
            np_.arange(len(active), dtype=np_.int64) * span, act_sizes
        )
        key += codes[
            act_idx,
            np_.repeat(
                np_.array(
                    [a[2] if a[2] < k else k for a in active],
                    dtype=np_.int64,
                ),
                act_sizes,
            ),
        ]
        if total > 1 and not bool((key[1:] >= key[:-1]).all()):
            perm = np_.argsort(key, kind="stable")
            key_s = key[perm]
        else:
            # Already partitioned (common at non-forking levels): skip
            # the sort.
            perm = None
            key_s = key
        if total == 0:
            starts_l: List[int] = []
            ends_l: List[int] = []
            block_node_l: List[int] = []
            first_pos_l: List[int] = []
            first_idx_l: List[int] = []
        else:
            bounds = np_.flatnonzero(key_s[1:] != key_s[:-1]) + 1
            starts_arr = np_.concatenate(
                [np_.zeros(1, dtype=np_.int64), bounds]
            )
            ends_l = bounds.tolist() + [total]
            starts_l = starts_arr.tolist()
            block_node_l = (key_s[starts_arr] // span).tolist()
            first_pos = starts_arr if perm is None else perm[starts_arr]
            first_pos_l = first_pos.tolist()
            first_idx_l = act_idx[first_pos].tolist()
        nxt_frontier: List[Tuple[Any, Any]] = []
        nxt_sizes: List[int] = []
        # The next level's rows as segments of the sorted active rows.
        seg_starts: List[int] = []
        seg_lens: List[int] = []
        mults: List[float] = []
        col_vals: List[int] = []
        branched = False
        block = 0
        n_blocks = len(starts_l)
        for r, (state, board, speaker, link) in enumerate(active):
            first = block
            while block < n_blocks and block_node_l[block] == r:
                block += 1
            node_blocks = list(range(first, block))
            if len(node_blocks) > 1:
                node_blocks.sort(key=first_pos_l.__getitem__)
            # children: bits -> [Message, [(block, p, index), ...]]
            children: Dict[str, List[Any]] = {}
            for t in node_blocks:
                speaker_input = (
                    input_keys[first_idx_l[t]][speaker] if speaker < k
                    else None
                )
                dist = protocol.message_distribution(
                    state, speaker, speaker_input, board
                )
                positive = 0
                for index, (bits, p) in enumerate(dist.items()):
                    if p <= 0.0:
                        continue
                    if bits == "":
                        raise ProtocolViolation(
                            "protocols may not write empty messages"
                        )
                    positive += 1
                    child = children.get(bits)
                    if child is None:
                        message = messages.get((speaker, bits, link))
                        if message is None:
                            message = messages[(speaker, bits, link)] = (
                                Message(speaker, bits, link)
                            )
                        child = children[bits] = [message, []]
                    child[1].append((t, p, index))
                if positive > 1:
                    branched = True
            for _bits, (message, segs) in children.items():
                nxt_frontier.append(
                    (
                        protocol.advance_state(state, message),
                        board.extend(message),
                    )
                )
                size = 0
                for t, p, index in segs:
                    blo = starts_l[t]
                    seg_starts.append(blo)
                    seg_lens.append(ends_l[t] - blo)
                    mults.append(p)
                    col_vals.append(index)
                    size += ends_l[t] - blo
                nxt_sizes.append(size)
        frontier = nxt_frontier
        sizes = nxt_sizes
        level += 1
        if not frontier:
            break
        # Next level's arrays: one gather index composed down to this
        # level's rows, then a single elementwise multiply — per element
        # this is the same float64 `prob * p` product the legacy walk
        # computes.
        lens = np_.array(seg_lens, dtype=np_.int64)
        offsets = np_.cumsum(lens) - lens
        gather = np_.repeat(
            np_.array(seg_starts, dtype=np_.int64) - offsets, lens
        ) + np_.arange(int(lens.sum()), dtype=np_.int64)
        if perm is not None:
            gather = perm[gather]
        if act_rows is not None:
            gather = act_rows[gather]
        A_idx = A_idx[gather]
        A_probs = A_probs[gather] * np_.repeat(
            np_.array(mults, dtype=np_.float64), lens
        )
        base_lin = A_lin[gather]
        A_spills = [spill[gather] for spill in A_spills]
        if branched:
            radix = max(col_vals) + 1
            if lin_scale * radix > (1 << _LINEAGE_BITS):
                A_spills = A_spills + [base_lin]
                epoch_scales.append(lin_scale)
                base_lin = np_.zeros(base_lin.shape[0], dtype=np_.int64)
                lin_scale = 1
            A_lin = base_lin * radix + np_.repeat(
                np_.array(col_vals, dtype=np_.int64), lens
            )
            lin_scale *= radix
        else:
            A_lin = base_lin

    if not leaf_boards:
        empty = SortedLeaves(
            np_.zeros(m, dtype=np_.int64),
            np_.zeros(0, dtype=np_.int64),
            np_.zeros(0, dtype=np_.float64),
            np_.empty(0, dtype=object),
        )
        return empty, nodes_expanded, 0, max_depth
    union_leaves = len(leaf_boards)
    epoch_scales.append(lin_scale)
    n_epochs = len(epoch_scales)
    boards_arr = np_.empty(union_leaves, dtype=object)
    for leaf_index, board in enumerate(leaf_boards):
        boards_arr[leaf_index] = board
    leaf_of = np_.concatenate([chunk[0] for chunk in leaf_chunks])
    member = np_.concatenate([chunk[1] for chunk in leaf_chunks])
    prob_all = np_.concatenate([chunk[2] for chunk in leaf_chunks])
    member_counts = np_.bincount(member, minlength=m)
    if (
        (n_epochs == 1 and epoch_scales[0] == 1)
        or int(member_counts.max()) == 1
    ):
        # Deterministic-per-member case: no level ever branched (or each
        # input reaches exactly one leaf), so there is nothing to order
        # within a member and the lineage codes never influence the
        # result — group by member only.
        order = np_.argsort(member, kind="stable")
    else:
        # One int64 column per lineage epoch.  A chunk that ended in an
        # earlier epoch pads its later columns with zero, and its live
        # codes are rescaled to the epoch's final radix product (an exact
        # integer multiply: the chunk's scale divides the epoch scale).
        # Two leaves of one member always diverge at some branched level
        # both were alive for, so their codes differ in the shared
        # digits and the padding never decides an order — the same
        # prefix-tie-impossibility the legacy tuple sort relies on.  For
        # the same reason the chunk order never decides an order either.
        lin_mat = np_.zeros((member.shape[0], n_epochs), dtype=np_.int64)
        row = 0
        for chunk in leaf_chunks:
            rows = chunk[1].shape[0]
            spills = chunk[3]
            for e, spill in enumerate(spills):
                lin_mat[row:row + rows, e] = spill
            e_rec = len(spills)
            factor = epoch_scales[e_rec] // chunk[5]
            if factor == 1:
                lin_mat[row:row + rows, e_rec] = chunk[4]
            else:
                lin_mat[row:row + rows, e_rec] = chunk[4] * factor
            row += rows
        # Primary key: member ascending; then lineage descending
        # (negated columns, most-significant epoch first — np.lexsort
        # treats the *last* key as primary).  Normally n_epochs == 1 so
        # this is a two-key sort.
        sort_keys = [-lin_mat[:, e] for e in range(n_epochs - 1, -1, -1)]
        sort_keys.append(member)
        order = np_.lexsort(tuple(sort_keys))
    # Rows are now contiguous per member, each member's in its legacy
    # leaf order.
    return (
        SortedLeaves(member_counts, leaf_of[order], prob_all[order], boards_arr),
        nodes_expanded,
        union_leaves,
        max_depth,
    )


# ----------------------------------------------------------------------
# The columnar joint law (core.tree) and its column encoding
# ----------------------------------------------------------------------
def columnar_joint(
    leaves: SortedLeaves, population: InputColumns
) -> Tuple[JointColumns, int]:
    """The joint law of ``(scenario components..., transcript)`` as
    columns, straight from the walk's leaf table.

    ``population`` is the encoded scenario law the walk ran over:
    scenario ``s`` has mass ``population.p[s]`` and ran as walk input
    ``member[s]``.  Returns the :class:`JointColumns` of the normalized
    joint (its ``outcomes`` builds the outcome tuples on demand) and the
    number of outcomes before the zero-mass filter.

    Every float is the one the dict path stores, step for step:

    * each input's law is ``DiscreteDistribution(leaves,
      normalize=True)`` over its rows — total by builtin ``sum()`` in
      row order (a single leaf's total is the leaf itself, so it stores
      ``p * (1.0 / p)``), rows with ``p > 0`` kept;
    * each scenario's outcomes are ``0.0 + p_scenario * p_transcript``
      (``0.0 + x == x``) in law order, scenario-major; no two outcomes
      coincide, since scenarios are distinct and so are one law's
      transcripts;
    * the joint normalizer is builtin ``sum()`` over those outcomes in
      that order, and the joint keeps outcomes with mass ``> 0``;
    * codes number each column's values in first-seen outcome order.
      The population's scenario codes are first-seen dense already
      (the input component is numbered by ``member``), so they are
      only renumbered where a scenario loses every row.
    """
    np_ = require_numpy()
    _count_call("joint_columns")
    counts = leaves.counts
    q = leaves.probs
    leaf_ids = leaves.leaf_ids
    m = counts.shape[0]
    starts = np_.cumsum(counts) - counts

    # Per-input normalization.
    totals = np_.zeros(m, dtype=np_.float64)
    single = counts == 1
    totals[single] = q[starts[single]]
    multi = np_.flatnonzero(counts > 1)
    if multi.shape[0]:
        q_list = q.tolist()
        for j, lo, hi in zip(
            multi.tolist(),
            starts[multi].tolist(),
            (starts[multi] + counts[multi]).tolist(),
        ):
            totals[j] = sum(q_list[lo:hi])
    if not bool((totals > 0.0).all()):
        raise ValueError("cannot normalize: total mass is not positive")
    law = q * np_.repeat(1.0 / totals, counts)
    positive = q > 0.0
    if not bool(positive.all()):
        law = law[positive]
        leaf_ids = leaf_ids[positive]
        counts = np_.bincount(
            np_.repeat(np_.arange(m, dtype=np_.int64), counts)[positive],
            minlength=m,
        )
        starts = np_.cumsum(counts) - counts

    # Scenario x law expansion, scenario-major.
    n_scenarios = population.p.shape[0]
    member = population.member
    if member is None:
        member = np_.arange(n_scenarios, dtype=np_.int64)
    lens = counts[member]
    n_rows = int(lens.sum())
    offsets = np_.cumsum(lens) - lens
    gather = np_.repeat(starts[member] - offsets, lens) + np_.arange(
        n_rows, dtype=np_.int64
    )
    raw = np_.repeat(population.p, lens) * law[gather]
    total = sum(raw.tolist())
    if not total > 0.0:
        raise ValueError("cannot normalize: total mass is not positive")
    row_scenario = np_.repeat(
        np_.arange(n_scenarios, dtype=np_.int64), lens
    )
    row_leaf = leaf_ids[gather]
    kept = raw > 0.0
    every_row = bool(kept.all())
    if not every_row:
        raw = raw[kept]
        row_scenario = row_scenario[kept]
        row_leaf = row_leaf[kept]
    p = raw * (1.0 / total)

    codes: List[Any] = []
    values: List[List[Any]] = []
    for component in population.scenario or [None]:
        if component is None:
            scenario_codes, scenario_values = member, list(population.inputs)
        else:
            scenario_codes, scenario_values = component
        column = scenario_codes[row_scenario]
        if not every_row:
            # Every scenario has a row, so scenario-level first-seen
            # order is row-level first-seen order unless rows dropped.
            column, originals, _n = _first_seen_codes(np_, column)
            scenario_values = [scenario_values[v] for v in originals.tolist()]
        codes.append(column)
        values.append(scenario_values)
    transcript_codes, transcript_ids, _n = _first_seen_codes(np_, row_leaf)
    codes.append(transcript_codes)
    values.append(leaves.boards[transcript_ids].tolist())

    boards = leaves.boards
    scenarios = population.outcomes
    wrapped = population.scenario is None

    def outcomes() -> List[Tuple[Any, ...]]:
        rows = zip(row_scenario.tolist(), boards[row_leaf].tolist())
        if wrapped:
            return [(scenarios[s], board) for s, board in rows]
        return [scenarios[s] + (board,) for s, board in rows]

    return JointColumns(p, codes, values, outcomes), n_rows


def joint_columns(joint: Any) -> JointColumns:
    """The cached :class:`JointColumns` of ``joint``, encoding a
    hand-built joint (one pass per component) on first use."""
    columns = joint._columns  # noqa: SLF001 - the joint's cache slot
    if columns is None:
        np_ = require_numpy()
        law = joint.distribution()
        count = len(law)
        p = np_.fromiter(
            (p for _outcome, p in law.items()), dtype=np_.float64, count=count
        )
        codes: List[Any] = []
        values: List[List[Any]] = []
        for index in range(joint.arity):
            column, decoded = _encode_values(
                np_, (outcome[index] for outcome, _p in law.items()), count
            )
            codes.append(column)
            values.append(decoded)
        columns = JointColumns(p, codes, values)
        joint._columns = columns  # noqa: SLF001
    return columns


# ----------------------------------------------------------------------
# Mutual information / conditional MI (information.entropy)
# ----------------------------------------------------------------------
def _marginal_probs(np_: Any, fs_codes: Any, n_codes: int, p: Any) -> Any:
    """The stored values of ``DiscreteDistribution(acc, normalize=True)``
    for a group-by accumulation: ``np.add.at`` accumulates sequentially
    in item order (same fold as the legacy dict), the normalizer is
    builtin ``sum()`` over first-seen insertion order."""
    acc = np_.zeros(n_codes, dtype=np_.float64)
    np_.add.at(acc, fs_codes, p)
    return acc * (1.0 / sum(acc.tolist()))


def _mi_from_arrays(np_: Any, p: Any, a_codes: Any, b_codes: Any) -> float:
    """``mutual_information`` over pre-encoded columns of one joint law
    (or one conditioned slice of it), replicating the legacy iteration
    orders: marginals accumulate and normalize in first-seen order, pair
    terms sum in first-seen pair order, total clamps at 0."""
    a_fs, _a_orig, na = _first_seen_codes(np_, a_codes)
    b_fs, _b_orig, nb = _first_seen_codes(np_, b_codes)
    pa = _marginal_probs(np_, a_fs, na, p)
    pb = _marginal_probs(np_, b_fs, nb, p)
    pair = a_fs * nb + b_fs
    pair_fs, pair_orig, n_pairs = _first_seen_codes(np_, pair)
    acc = np_.zeros(n_pairs, dtype=np_.float64)
    np_.add.at(acc, pair_fs, p)
    den = pa[pair_orig // nb] * pb[pair_orig % nb]
    terms = acc * _exact_log2(np_, acc / den)
    return max(ordered_sum(terms), 0.0)


def _cmi_from_arrays(
    np_: Any, p: Any, a_codes: Any, b_codes: Any, z_codes: Any
) -> Optional[float]:
    """``conditional_mutual_information`` over pre-encoded columns
    (``z_codes`` first-seen dense), or ``None`` where the legacy path
    raises.

    Replicates the legacy computation structurally: the conditioning
    marginal's first-seen value order, the *double* normalization a
    ``JointDistribution.condition`` performs (once in
    ``DiscreteDistribution.condition``, once in the joint constructor's
    drift removal — including the constructor's mass-tolerance check),
    and the per-``z`` ``p * max(MI, 0)`` accumulation order.
    """
    nz = int(z_codes.max()) + 1
    pz = _marginal_probs(np_, z_codes, nz, p)
    row_order = np_.argsort(z_codes, kind="stable")
    counts = np_.bincount(z_codes, minlength=nz).tolist()
    p_sorted = p[row_order]
    a_sorted = a_codes[row_order]
    b_sorted = b_codes[row_order]
    pz_list = pz.tolist()
    total = 0.0
    lo = 0
    for z in range(nz):
        hi = lo + counts[z]
        raw = p_sorted[lo:hi]
        scaled_once = raw * (1.0 / sum(raw.tolist()))
        mass = sum(scaled_once.tolist())
        if not abs(mass - 1.0) <= 1e-9:
            # The legacy joint constructor would reject this slice.
            return None
        scaled_twice = scaled_once * (1.0 / mass)
        mi = _mi_from_arrays(np_, scaled_twice, a_sorted[lo:hi], b_sorted[lo:hi])
        total += pz_list[z] * mi
        lo = hi
    return total


def mutual_information_fast(joint: Any, a: Any, b: Any) -> Optional[float]:
    """Vectorized :func:`repro.information.entropy.mutual_information`
    for single-component ``a``/``b``, or ``None`` to fall back."""
    if not isinstance(a, (str, int)) or not isinstance(b, (str, int)):
        return None
    if joint._support_size() < _VECTOR_MIN_SUPPORT:  # noqa: SLF001
        return None
    np_ = require_numpy()
    a_index = joint._resolve(a)  # noqa: SLF001 - same internal the legacy path uses
    b_index = joint._resolve(b)  # noqa: SLF001
    _count_call("mutual_information")
    columns = joint_columns(joint)
    return _mi_from_arrays(
        np_, columns.p, columns.codes[a_index], columns.codes[b_index]
    )


def conditional_mutual_information_fast(
    joint: Any, a: Any, b: Any, given: Any
) -> Optional[float]:
    """Vectorized
    :func:`repro.information.entropy.conditional_mutual_information`
    for single-component arguments, or ``None`` to fall back (see
    :func:`_cmi_from_arrays`)."""
    if (
        not isinstance(a, (str, int))
        or not isinstance(b, (str, int))
        or not isinstance(given, (str, int))
    ):
        return None
    if joint._support_size() < _VECTOR_MIN_SUPPORT:  # noqa: SLF001
        return None
    np_ = require_numpy()
    a_index = joint._resolve(a)  # noqa: SLF001
    b_index = joint._resolve(b)  # noqa: SLF001
    g_index = joint._resolve(given)  # noqa: SLF001
    _count_call("conditional_mutual_information")
    columns = joint_columns(joint)
    return _cmi_from_arrays(
        np_,
        columns.p,
        columns.codes[a_index],
        columns.codes[b_index],
        columns.codes[g_index],
    )


# ----------------------------------------------------------------------
# Lemma 3 class-conditioned transcript probabilities (lowerbounds)
# ----------------------------------------------------------------------
def class_conditioned_probabilities(
    factor_table: Any, class_matrix: Any
) -> float:
    """:math:`\\Pr[\\Pi = \\ell \\mid X \\in \\text{class}]` for a uniform
    input class, from a ``(k, 2)`` per-player factor table and an
    ``(m, k)`` 0/1 class matrix.

    Bit-identical to ``sum(factors.probability(x) for x in class) / m``:
    per input the factors multiply in ascending player order from 1.0,
    and the class total is builtin ``sum()`` in class order.
    """
    np_ = require_numpy()
    _count_call("lemma3_class_probability")
    m, k = class_matrix.shape
    product = np_.ones(m, dtype=np_.float64)
    for i in range(k):
        product = product * factor_table[i][class_matrix[:, i]]
    return sum(product.tolist()) / m


# ----------------------------------------------------------------------
# Lemma 2 per-player divergence sum (lowerbounds.posterior)
# ----------------------------------------------------------------------
def _divergence_sum_from_arrays(
    np_: Any,
    p: Any,
    inputs: Any,
    x_codes: Any,
    z_codes: Any,
    t_codes: Any,
    k: int,
) -> float:
    """The Lemma 2 sum over pre-encoded columns: ``inputs`` is the
    ``(distinct inputs, k)`` 0/1 matrix and row ``r`` holds input
    ``x_codes[r]``; ``z_codes`` is dense.  The two-outcome
    posteriors/priors make every inner sum a one- or two-term IEEE
    addition, which is commutative bit-for-bit, so no per-pair ordering
    state is needed."""
    nz = int(z_codes.max()) + 1
    pair = t_codes * nz + z_codes
    pair_fs, _pair_orig, n_pairs = _first_seen_codes(np_, pair)
    z_of_pair = np_.zeros(n_pairs, dtype=np_.int64)
    z_of_pair[pair_fs] = z_codes

    pair_mass = np_.bincount(pair_fs, weights=p, minlength=n_pairs)

    # Bit-mass tables, one bincount per player over row-length arrays:
    # bincount adds each slot's weights in row order from 0.0, the exact
    # per-slot fold of the legacy dict accumulation.
    post = np_.empty((n_pairs, k, 2), dtype=np_.float64)
    aux = np_.empty((nz, k, 2), dtype=np_.float64)
    for i in range(k):
        bit = inputs[:, i][x_codes]
        post[:, i, :] = np_.bincount(
            pair_fs * 2 + bit, weights=p, minlength=n_pairs * 2
        ).reshape(n_pairs, 2)
        aux[:, i, :] = np_.bincount(
            z_codes * 2 + bit, weights=p, minlength=nz * 2
        ).reshape(nz, 2)

    post_total = post[:, :, 0] + post[:, :, 1]
    post_scale = 1.0 / post_total
    aux_pairs = aux[z_of_pair]
    aux_total = aux_pairs[:, :, 0] + aux_pairs[:, :, 1]
    aux_scale = 1.0 / aux_total

    kl = np_.zeros((n_pairs, k), dtype=np_.float64)
    for bit in (0, 1):
        mass = post[:, :, bit]
        present = mass > 0.0
        if not present.any():
            continue
        q_mass = aux_pairs[:, :, bit]
        if np_.logical_and(present, q_mass == 0.0).any():
            return math.inf
        p_bit = mass * post_scale
        q_bit = q_mass * aux_scale
        ratio = np_.divide(
            p_bit, q_bit, out=np_.ones_like(p_bit), where=present
        )
        kl = kl + np_.where(
            present, p_bit * _exact_log2(np_, ratio), 0.0
        )
    kl = np_.maximum(kl, 0.0)
    contributions = pair_mass[:, None] * kl
    return ordered_sum(contributions.reshape(-1))


def per_player_divergence_sum_fast(
    joint: Any, k: int, x_index: int, z_index: int, t_index: int
) -> Optional[float]:
    """Vectorized right-hand side of Lemma 2, or ``None`` to fall back.

    Engages only when every player's input bit is exactly 0 or 1 (the
    hard-distribution setting).
    """
    if joint._support_size() < _VECTOR_MIN_SUPPORT:  # noqa: SLF001
        return None
    np_ = require_numpy()
    columns = joint_columns(joint)
    try:
        inputs = np_.array(columns.values[x_index], dtype=np_.int64)
    except (TypeError, ValueError):
        return None
    if inputs.ndim != 2 or inputs.shape[1] != k:
        return None
    if not np_.logical_or(inputs == 0, inputs == 1).all():
        return None
    _count_call("per_player_divergence_sum")
    return _divergence_sum_from_arrays(
        np_,
        columns.p,
        inputs,
        columns.codes[x_index],
        columns.codes[z_index],
        columns.codes[t_index],
        k,
    )



# ----------------------------------------------------------------------
# E14 zero-error rectangle DP (lowerbounds.optimal_information)
# ----------------------------------------------------------------------
def minimum_entropy_supported(k: int, z_count: int) -> bool:
    """Whether the vectorized rectangle DP may run for this instance."""
    return k >= 1 and (3 ** k) * z_count <= _E14_CELL_CAP


def minimum_entropy(
    k: int,
    evaluate: Callable[[Sequence[int]], int],
    conditional_masses: Sequence[Callable[[int, int], float]],
) -> float:
    """Vectorized form of the ``_minimum_entropy`` rectangle DP.

    Rectangles are base-3 codes (digit 2 = unrestricted, player 0 least
    significant); the DP runs bottom-up by unknown-coordinate count.
    All float operations replicate the legacy recursion's order exactly:
    rectangle masses fold over players ascending, split costs fold over
    ``z`` ascending then divide by ``z_count``, candidates associate as
    ``(split + left) + right``, and the minimum scans split coordinates
    ascending with a strict ``<``.

    Only what the DP reads is held: monochromatic rectangles are
    settled first, without masses, and per-``z`` masses are kept only
    for the rectangles it splits and their right halves.
    """
    np_ = require_numpy()
    _count_call("minimum_entropy_dp")
    z_count = len(conditional_masses)
    n = 3 ** k
    pow3 = [3 ** i for i in range(k)]

    def by_digit(table: Any, i: int) -> Any:
        """``table`` viewed as ``[higher digits, digit i, lower
        digits]``."""
        return table.reshape(n // (3 * pow3[i]), 3, pow3[i])

    # The corners, in ascending code order, colour every rectangle:
    # a code of the corner's value when the task is constant on it
    # (monochromatic), -1 otherwise.  A rectangle is written last at
    # its highest unknown digit, from two halves whose highest unknown
    # digits are lower and so already final.
    corners = np_.zeros(1, dtype=np_.int64)
    for width in pow3:
        corners = np_.concatenate([corners, corners + width])
    corner_values = np_.array(
        [
            evaluate(assignment[::-1])
            for assignment in itertools.product((0, 1), repeat=k)
        ],
        dtype=np_.int64,
    )
    distinct, corner_codes = np_.unique(corner_values, return_inverse=True)
    colour = np_.full(
        n, -1, dtype=np_.int8 if distinct.shape[0] <= 127 else np_.int32
    )
    colour[corners] = corner_codes
    # Bit i of ``unknown[code]`` is set where digit i is 2.
    unknown = np_.zeros(n, dtype=np_.uint16 if k <= 16 else np_.uint32)
    unknown_count = np_.zeros(n, dtype=np_.int8)
    for i in range(k):
        halves = by_digit(colour, i)
        halves[:, 2, :] = np_.where(
            halves[:, 0, :] == halves[:, 1, :], halves[:, 0, :], -1
        )
        by_digit(unknown, i)[:, 2, :] |= 1 << i
        by_digit(unknown_count, i)[:, 2, :] += 1
    # The DP level of every split rectangle (-1 for monochromatic ones).
    split_level = np_.where(colour < 0, unknown_count, -1).astype(np_.int8)
    del colour, unknown_count

    # Masses are read at split rectangles and at their right halves
    # (digit i 2 -> 1); ``slot`` numbers those codes in ascending order.
    is_split = split_level >= 0
    needed = is_split.copy()
    for i in range(k):
        by_digit(needed, i)[:, 1, :] |= by_digit(is_split, i)[:, 2, :]
    held = np_.flatnonzero(needed)
    del is_split, needed
    slot = np_.zeros(n, dtype=np_.int64)
    slot[held] = np_.arange(held.shape[0], dtype=np_.int64)

    # Per-z rectangle masses: every entry is 1.0 times its known
    # players' factors in ascending order, exactly the legacy
    # skip-unknowns loop.  One dense row is filled at a time by a
    # Kronecker fold over players ascending (the first 3**(i + 1)
    # entries are three blocks, one per digit of player i, each derived
    # from the first 3**i): an unrestricted digit copies the head block,
    # and the head (digit 0) is scaled last, after both copies read it.
    mass = np_.empty((z_count, held.shape[0]), dtype=np_.float64)
    row = np_.empty(n, dtype=np_.float64)
    for z in range(z_count):
        masses = conditional_masses[z]
        row[0] = 1.0
        for i, width in enumerate(pow3):
            head = row[:width]
            row[2 * width : 3 * width] = head
            np_.multiply(head, masses(i, 1), out=row[width : 2 * width])
            head *= masses(i, 0)
        mass[z] = row[held]
    del row, held

    value = np_.zeros(n, dtype=np_.float64)
    for level in range(1, k + 1):
        work = np_.flatnonzero(split_level == level)
        if work.shape[0] == 0:
            continue
        best = np_.full(work.shape[0], np_.inf, dtype=np_.float64)
        work_unknown = unknown[work]
        for i in range(k):
            splittable = (work_unknown & (1 << i)) != 0
            if not splittable.any():
                continue
            rect = work[splittable]
            rect_left = rect - 2 * pow3[i]
            rect_right = rect - pow3[i]
            at_rect = slot[rect]
            at_right = slot[rect_right]
            split = np_.zeros(rect.shape[0], dtype=np_.float64)
            for z in range(z_count):
                p_rect = mass[z, at_rect]
                positive = p_rect > 0.0
                ratio = np_.divide(
                    mass[z, at_right],
                    p_rect,
                    out=np_.zeros(rect.shape[0], dtype=np_.float64),
                    where=positive,
                )
                ratio = np_.minimum(np_.maximum(ratio, 0.0), 1.0)
                split = split + np_.where(
                    positive,
                    p_rect * _exact_binary_entropy(np_, ratio),
                    0.0,
                )
            split = split / z_count
            candidate = (split + value[rect_left]) + value[rect_right]
            current = best[splittable]
            best[splittable] = np_.where(
                candidate < current, candidate, current
            )
        value[work] = best
    return float(value[n - 1])


# ----------------------------------------------------------------------
# E1 disjointness bit-count simulators (bigint board engine)
# ----------------------------------------------------------------------
def _gamma_length(value: int) -> int:
    return 2 * (value.bit_length() - 1) + 1


_LOWEST_BITS_BLOCK = 1024


def _lowest_bits(mask: int, m: int) -> int:
    """The ``m`` lowest set bits of ``mask`` (caller guarantees it has
    at least ``m``): ``mask`` cut just above its ``m``-th set bit.

    Whole blocks of ``_LOWEST_BITS_BLOCK`` bits are counted up to the
    block holding that bit, which is then bisected, so no popcount spans
    more than one block."""
    block_mask = (1 << _LOWEST_BITS_BLOCK) - 1
    for base in range(0, mask.bit_length() + 1, _LOWEST_BITS_BLOCK):
        block = (mask >> base) & block_mask
        count = popcount(block)
        if count >= m:
            break
        m -= count
    else:
        raise ValueError("mask has fewer set bits than requested")
    lo, hi = 0, block.bit_length()
    while lo < hi:
        width = (lo + hi) // 2
        if popcount(block & ((1 << width) - 1)) >= m:
            hi = width
        else:
            lo = width + 1
    return mask & ((1 << (base + lo)) - 1)


def simulate_trivial_disjointness(
    n: int, k: int, masks: Sequence[int]
) -> Tuple[int, int]:
    """``(bits, output)`` of ``TrivialDisjointnessProtocol`` — every
    player writes its full ``n``-bit vector."""
    _count_call("e1_trivial")
    intersection = (1 << n) - 1
    for mask in masks:
        intersection &= mask
    return n * k, int(intersection == 0)


def simulate_naive_disjointness(
    n: int, k: int, masks: Sequence[int]
) -> Tuple[int, int]:
    """``(bits, output)`` of ``NaiveDisjointnessProtocol`` without
    materializing any message strings — only the exact bit widths."""
    _count_call("e1_naive")
    full = (1 << n) - 1
    index_width = max((n - 1).bit_length(), 1)
    covered = 0
    bits = 0
    for mask in masks:
        new_zeros = (~mask) & full & ~covered
        if new_zeros == 0:
            bits += 1
        else:
            count = popcount(new_zeros)
            bits += 1 + _gamma_length(count) + count * index_width
            covered |= new_zeros
    return bits, int(covered == full)


def simulate_optimal_disjointness(
    n: int, k: int, masks: Sequence[int]
) -> Tuple[int, int]:
    """``(bits, output)`` of ``OptimalDisjointnessProtocol``.

    Replays the board-state fold of the Section 5 protocol on bigint
    bitmasks, charging each turn its exact encoded width (pass bit,
    batch subset code, or endgame index list) without constructing the
    combinadic ranks — the rank arithmetic dominates the legacy runner's
    cost at large ``n`` and never affects the bit count.
    """
    _count_call("e1_optimal")
    from ..coding.combinatorial import subset_code_width

    full = (1 << n) - 1
    covered = 0
    cycle_base = 0
    turn = 0
    wrote = False
    endgame = n < k * k
    zone_size = n
    bits = 0
    while True:
        if covered == full:
            return bits, 1
        player = turn
        mask = masks[player]
        new_zeros = (~mask) & full & ~covered
        if endgame:
            count = popcount(new_zeros)
            if count == 0:
                bits += 1
                written = 0
            else:
                width = (zone_size - 1).bit_length()
                bits += 1 + _gamma_length(count) + count * width
                written = new_zeros
        else:
            batch = -(-zone_size // k)
            if popcount(new_zeros) >= batch:
                bits += 1 + subset_code_width(zone_size, batch)
                written = _lowest_bits(new_zeros, batch)
            else:
                bits += 1
                written = 0
        covered |= written
        turn += 1
        wrote = wrote or written != 0
        if covered == full:
            continue
        if turn < k:
            continue
        if endgame or not wrote:
            return bits, 0
        zone_size = n - popcount(covered)
        cycle_base = covered
        turn = 0
        wrote = False
        endgame = zone_size < k * k
